//! The machine-code simulator.
//!
//! Executes an [`MModule`] against one *global* register file — essential
//! for this reproduction, because the entire subject of the paper is what
//! happens to shared registers at procedure boundaries. A register that a
//! callee clobbers without saving is really clobbered for the caller here.
//!
//! [`run`] decodes the module once into a flat array of [`Inst`]s and then
//! interprets that array. All run-time state lives in a few contiguous
//! vectors: the value file (registers, then the module's immediates),
//! memory (the globals, then a stack of frames), a stack of preserved
//! register values and a dense per-edge ledger. A call allocates nothing
//! once those vectors have grown to the run's deepest stack. DESIGN.md
//! "Simulator execution model" explains the layout.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use ipra_ir::{BinOp, BlockId, FuncId, UnOp};
use ipra_machine::{
    CostModel, MAddress, MCallee, MFunction, MInst, MModule, MOperand, MTerminator, MemClass, PReg,
    RegFile, RegMask,
};
use ipra_obs::metrics::Log2Histogram;

use crate::stats::{class_index, EdgePenalty, FuncStats, Stats, ROOT_CALLER};

/// Why simulation stopped abnormally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimTrap {
    /// Division (or remainder) by zero.
    DivideByZero,
    /// Out-of-bounds memory access.
    OutOfBounds {
        /// Description of the object.
        what: String,
        /// Offending index.
        index: i64,
    },
    /// Indirect call to a value that is not a function address.
    BadIndirectTarget(i64),
    /// Frame stack exceeded the limit.
    StackOverflow,
    /// Cycle budget exhausted.
    OutOfFuel,
    /// Module has no `main`.
    NoMain,
    /// A procedure modified a register its summary promises to preserve.
    ConventionViolation {
        /// Offending function.
        func: String,
        /// Register whose value changed.
        reg: PReg,
        /// Value at entry.
        before: i64,
        /// Value at return.
        after: i64,
    },
}

impl fmt::Display for SimTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimTrap::DivideByZero => write!(f, "division by zero"),
            SimTrap::OutOfBounds { what, index } => {
                write!(f, "index {index} out of bounds for {what}")
            }
            SimTrap::BadIndirectTarget(v) => {
                write!(f, "indirect call through non-function value {v}")
            }
            SimTrap::StackOverflow => write!(f, "frame stack overflow"),
            SimTrap::OutOfFuel => write!(f, "cycle budget exhausted"),
            SimTrap::NoMain => write!(f, "module has no main"),
            SimTrap::ConventionViolation {
                func,
                reg,
                before,
                after,
            } => write!(
                f,
                "`{func}` must preserve {reg} but changed it from {before} to {after}"
            ),
        }
    }
}

impl std::error::Error for SimTrap {}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Cycle cost model.
    pub cost: CostModel,
    /// Cycle budget.
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: usize,
    /// When set, the simulator checks on every return that the returning
    /// function preserved every register *not* in its clobber mask (the
    /// register-usage summary soundness check). Indexed by function.
    pub preserve_masks: Option<Vec<RegMask>>,
    /// Registers exempt from the preservation check (return value, scratch,
    /// link). Filled in by [`SimOptions::for_target`].
    pub exempt: RegMask,
    /// Collect per-block execution counts (the profile the paper's §8
    /// names as future feedback into the allocator).
    pub collect_block_profile: bool,
}

impl SimOptions {
    /// Default options for a target register file (no convention checking).
    pub fn for_target(regs: &RegFile) -> Self {
        let mut exempt = RegMask::single(regs.ret_reg());
        exempt.insert(regs.ra());
        for s in regs.scratch() {
            exempt.insert(s);
        }
        SimOptions {
            cost: CostModel::default(),
            fuel: 5_000_000_000,
            max_depth: 100_000,
            preserve_masks: None,
            exempt,
            collect_block_profile: false,
        }
    }

    /// Enables the convention checker with per-function clobber masks: every
    /// register outside `masks[f]` (and outside the exempt set) must be
    /// preserved by `f`.
    pub fn check_preservation(mut self, masks: Vec<RegMask>) -> Self {
        self.preserve_masks = Some(masks);
        self
    }

    /// Enables block-profile collection.
    pub fn with_block_profile(mut self) -> Self {
        self.collect_block_profile = true;
        self
    }
}

/// Result of a successful simulation.
#[derive(Clone, PartialEq, Debug)]
pub struct SimResult {
    /// Values printed, in order.
    pub output: Vec<i64>,
    /// Value left in the return register by `main`.
    pub return_value: i64,
    /// Dynamic counts.
    pub stats: Stats,
    /// Execution count per `[function][block]`, when requested.
    pub block_profile: Option<Vec<Vec<u64>>>,
}

/// One decoded instruction: its cycles under the run's [`CostModel`] and
/// what it does. Instructions and terminators decode one to one, function
/// by function and block by block, so a program counter also names its
/// source instruction (see [`source_inst`]).
#[derive(Clone, Copy)]
struct Inst {
    cost: u64,
    op: Op,
}

/// A decoded operation. Fields named `dst`, `src`, `lhs`, `rhs`, `index`,
/// `cond`, `target` and `arg` index the value file: the registers, then
/// the module's distinct immediates, so every operand is read the same way.
#[derive(Clone, Copy)]
enum Op {
    Copy {
        dst: u32,
        src: u32,
    },
    Bin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    Un {
        op: UnOp,
        dst: u32,
        src: u32,
    },
    /// Memory cells `off .. off + len`, counted from the current frame's
    /// start when `in_frame` (a frame slot or the outgoing-argument area),
    /// else from the start of memory (a global).
    Load {
        class: MemClass,
        in_frame: bool,
        dst: u32,
        index: u32,
        off: u32,
        len: u32,
    },
    Store {
        class: MemClass,
        in_frame: bool,
        src: u32,
        index: u32,
        off: u32,
        len: u32,
    },
    /// Incoming stack argument `i` (a constant, not a value index).
    LoadIncoming {
        class: MemClass,
        dst: u32,
        i: u32,
    },
    /// A direct call passing `n` stack arguments, charged to ledger
    /// entry `edge`. `fits` is false when `n` exceeds the caller's
    /// outgoing area.
    Call {
        callee: u32,
        edge: u32,
        n: u32,
        fits: bool,
    },
    CallIndirect {
        target: u32,
        n: u32,
        fits: bool,
    },
    Print {
        arg: u32,
    },
    Ret,
    /// Jump to `pc`, the first instruction of global block `block`.
    Br {
        pc: u32,
        block: u32,
    },
    CondBr {
        cond: u32,
        then_pc: u32,
        then_block: u32,
        else_pc: u32,
        else_block: u32,
    },
}

/// What a function's activations need, resolved at decode.
struct FuncInfo {
    /// Global number of the function's first block.
    first_block: u32,
    /// Global number of the entry block.
    entry_block: u32,
    /// Program counter of the entry block.
    entry_pc: u32,
    /// Frame cells: the slots, then the outgoing-argument area.
    frame_size: usize,
    /// Start of the outgoing-argument area within the frame.
    out_off: usize,
    /// The registers this function must preserve, in `Program::preserve`.
    preserve: Range<usize>,
}

/// A decoded module. Blocks are numbered globally, function by function.
struct Program {
    code: Vec<Inst>,
    /// Program counter of every block's first instruction.
    block_pc: Vec<u32>,
    funcs: Vec<FuncInfo>,
    /// The module's distinct immediates, which follow the registers in the
    /// value file.
    consts: Vec<i64>,
    /// Registers the convention checker compares on return, per function.
    preserve: Vec<PReg>,
}

/// The penalty ledger: one dense entry per call edge. Entry 0 is the
/// program-entry edge. Decode adds one entry per distinct
/// `(caller, callee)` pair of a direct call site; an indirect call adds
/// its edge on first use.
struct Ledger {
    entries: Vec<EdgePenalty>,
    /// Per caller, the `(callee, entry)` pairs known so far, sorted by
    /// callee.
    by_caller: Vec<Vec<(u32, u32)>>,
}

impl Ledger {
    fn new(funcs: usize, main: FuncId) -> Self {
        Ledger {
            entries: vec![EdgePenalty {
                caller: ROOT_CALLER,
                callee: main.0,
                ..EdgePenalty::default()
            }],
            by_caller: vec![Vec::new(); funcs],
        }
    }

    /// The entry of the edge `caller -> callee`, added on first use.
    fn id(&mut self, caller: usize, callee: u32) -> usize {
        let known = &mut self.by_caller[caller];
        match known.binary_search_by_key(&callee, |&(c, _)| c) {
            Ok(k) => known[k].1 as usize,
            Err(k) => {
                let id = self.entries.len();
                self.entries.push(EdgePenalty {
                    caller: u32_of(caller),
                    callee,
                    ..EdgePenalty::default()
                });
                known.insert(k, (callee, u32_of(id)));
                id
            }
        }
    }

    fn count_load(&mut self, edge: usize, class: MemClass) {
        match class {
            MemClass::SaveRestore => self.entries[edge].sr_loads += 1,
            MemClass::Spill => self.entries[edge].spill_loads += 1,
            MemClass::Data | MemClass::ScalarHome => {}
        }
    }

    fn count_store(&mut self, edge: usize, class: MemClass) {
        match class {
            MemClass::SaveRestore => self.entries[edge].sr_stores += 1,
            MemClass::Spill => self.entries[edge].spill_stores += 1,
            MemClass::Data | MemClass::ScalarHome => {}
        }
    }

    /// The rows of [`Stats::edge_penalty`]: every edge that was called,
    /// and the entry edge when `main` itself moved save/restore or spill
    /// traffic, priced under `cost` and sorted by `(caller, callee)`.
    fn into_rows(self, cost: &CostModel) -> Vec<EdgePenalty> {
        let root = &self.entries[0];
        let root_traffic = root.save_restore_mem() + root.spill_mem() > 0;
        let mut rows: Vec<EdgePenalty> = self
            .entries
            .into_iter()
            .enumerate()
            .filter(|(id, e)| e.calls > 0 || (*id == 0 && root_traffic))
            .map(|(_, mut e)| {
                e.penalty_cycles = e.sr_loads * cost.load + e.sr_stores * cost.store;
                e
            })
            .collect();
        // ROOT_CALLER is u32::MAX, so plain (caller, callee) order puts the
        // entry edge last.
        rows.sort_unstable_by_key(|e| (e.caller, e.callee));
        rows
    }
}

/// Interns operands into value-file indices.
struct Values {
    num_regs: usize,
    consts: Vec<i64>,
    ids: HashMap<i64, u32>,
}

impl Values {
    fn reg(&self, r: PReg) -> u32 {
        assert!(r.index() < self.num_regs, "register {r} outside the file");
        r.0 as u32
    }

    fn get(&mut self, o: MOperand) -> u32 {
        match o {
            MOperand::Reg(r) => self.reg(r),
            MOperand::Imm(v) => *self.ids.entry(v).or_insert_with(|| {
                self.consts.push(v);
                u32_of(self.num_regs + self.consts.len() - 1)
            }),
        }
    }
}

fn inst_cost(cost: &CostModel, inst: &MInst) -> u64 {
    match inst {
        MInst::Bin { op, .. } => cost.bin_op(*op),
        MInst::Copy { .. } | MInst::Un { .. } | MInst::FuncAddr { .. } => cost.alu,
        MInst::Load { .. } => cost.load,
        MInst::Store { .. } => cost.store,
        MInst::Call { .. } => cost.call,
        MInst::Print { .. } => cost.print,
    }
}

fn term_cost(cost: &CostModel, term: &MTerminator) -> u64 {
    match term {
        MTerminator::Ret => cost.ret,
        MTerminator::Br(_) | MTerminator::CondBr { .. } => cost.branch,
    }
}

fn u32_of(n: usize) -> u32 {
    u32::try_from(n).expect("module exceeds the simulator's 32-bit limits")
}

/// Decodes `module`, returning the program, the initial memory (every
/// global's cells, concatenated) and the ledger with its direct-call
/// entries.
fn decode(
    module: &MModule,
    regs: &RegFile,
    opts: &SimOptions,
    main: FuncId,
) -> (Program, Vec<i64>, Ledger) {
    let num_regs = regs.num_regs();
    // Block addresses come first, so branches can name their targets.
    let mut block_pc = Vec::new();
    let mut first_block = Vec::with_capacity(module.funcs.len());
    let mut len = 0usize;
    for f in module.funcs.values() {
        first_block.push(block_pc.len());
        for b in f.blocks.values() {
            block_pc.push(u32_of(len));
            len += b.insts.len() + 1;
        }
    }

    let mut globals = Vec::new();
    let mut global_base = Vec::with_capacity(module.globals.len());
    for g in module.globals.values() {
        let base = globals.len();
        global_base.push(u32_of(base));
        globals.resize(base + g.size as usize, 0);
        for (cell, init) in globals[base..].iter_mut().zip(&g.init) {
            *cell = *init;
        }
    }

    let mut vals = Values {
        num_regs,
        consts: Vec::new(),
        ids: HashMap::new(),
    };
    let mut code = Vec::with_capacity(len);
    let mut funcs = Vec::with_capacity(module.funcs.len());
    let mut preserve = Vec::new();
    let mut ledger = Ledger::new(module.funcs.len(), main);
    let mut slot_off = Vec::new();
    for (id, f) in module.funcs.iter() {
        let fb = first_block[id.index()];
        // Frame: the slots in id order, then the outgoing-argument area.
        slot_off.clear();
        let mut out_off = 0usize;
        for s in f.frame.values() {
            slot_off.push(u32_of(out_off));
            out_off += s.size as usize;
        }
        let frame_size = out_off + f.max_outgoing as usize;

        // One ledger entry per distinct direct callee.
        let mut callees: Vec<u32> = f
            .blocks
            .values()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                MInst::Call {
                    callee: MCallee::Direct(t),
                    ..
                } => Some(t.0),
                _ => None,
            })
            .collect();
        callees.sort_unstable();
        callees.dedup();
        for callee in callees {
            ledger.id(id.index(), callee);
        }

        let start = preserve.len();
        if let Some(masks) = &opts.preserve_masks {
            let clobbers = masks[id.index()];
            preserve.extend(
                (0..num_regs as u8)
                    .map(PReg)
                    .filter(|r| !clobbers.contains(*r) && !opts.exempt.contains(*r)),
            );
        }

        let ctx = FuncCtx {
            f,
            fb,
            block_pc: &block_pc,
            slot_off: &slot_off,
            out_off: u32_of(out_off),
            global_base: &global_base,
            module,
            known: &ledger.by_caller[id.index()],
        };
        for b in f.blocks.values() {
            for inst in &b.insts {
                code.push(Inst {
                    cost: inst_cost(&opts.cost, inst),
                    op: ctx.inst(inst, &mut vals),
                });
            }
            code.push(Inst {
                cost: term_cost(&opts.cost, &b.term),
                op: ctx.term(&b.term, &mut vals),
            });
        }
        let (entry_pc, entry_block) = ctx.block(f.entry);
        funcs.push(FuncInfo {
            first_block: u32_of(fb),
            entry_block,
            entry_pc,
            frame_size,
            out_off,
            preserve: start..preserve.len(),
        });
    }
    let prog = Program {
        code,
        block_pc,
        funcs,
        consts: vals.consts,
        preserve,
    };
    (prog, globals, ledger)
}

/// Decode context for one function.
struct FuncCtx<'a> {
    f: &'a MFunction,
    fb: usize,
    block_pc: &'a [u32],
    slot_off: &'a [u32],
    out_off: u32,
    global_base: &'a [u32],
    module: &'a MModule,
    known: &'a [(u32, u32)],
}

/// Where a decoded memory access reads or writes: the `in_frame`,
/// `index`, `off` and `len` of an [`Op::Load`] or [`Op::Store`], or an
/// incoming argument.
enum Place {
    Cells(bool, u32, u32, u32),
    Incoming(u32),
}

impl FuncCtx<'_> {
    /// Program counter and global number of local block `b`.
    fn block(&self, b: BlockId) -> (u32, u32) {
        assert!(b.index() < self.f.blocks.len(), "branch to missing {b}");
        let g = self.fb + b.index();
        (self.block_pc[g], u32_of(g))
    }

    fn place(&self, addr: MAddress, vals: &mut Values) -> Place {
        match addr {
            MAddress::Global { global, index } => Place::Cells(
                false,
                vals.get(index),
                self.global_base[global.index()],
                self.module.globals[global].size,
            ),
            MAddress::Frame { slot, index } => Place::Cells(
                true,
                vals.get(index),
                self.slot_off[slot.index()],
                self.f.frame[slot].size,
            ),
            MAddress::Incoming(i) => Place::Incoming(i),
            MAddress::Outgoing(i) => Place::Cells(
                true,
                vals.get(MOperand::Imm(i64::from(i))),
                self.out_off,
                self.f.max_outgoing,
            ),
        }
    }

    fn inst(&self, inst: &MInst, vals: &mut Values) -> Op {
        match *inst {
            MInst::Copy { dst, src } => Op::Copy {
                dst: vals.reg(dst),
                src: vals.get(src),
            },
            MInst::Bin { op, dst, lhs, rhs } => Op::Bin {
                op,
                dst: vals.reg(dst),
                lhs: vals.get(lhs),
                rhs: vals.get(rhs),
            },
            MInst::Un { op, dst, src } => Op::Un {
                op,
                dst: vals.reg(dst),
                src: vals.get(src),
            },
            MInst::Load { dst, addr, class } => {
                let dst = vals.reg(dst);
                match self.place(addr, vals) {
                    Place::Cells(in_frame, index, off, len) => Op::Load {
                        class,
                        in_frame,
                        dst,
                        index,
                        off,
                        len,
                    },
                    Place::Incoming(i) => Op::LoadIncoming { class, dst, i },
                }
            }
            MInst::Store { src, addr, class } => {
                let src = vals.get(src);
                match self.place(addr, vals) {
                    Place::Cells(in_frame, index, off, len) => Op::Store {
                        class,
                        in_frame,
                        src,
                        index,
                        off,
                        len,
                    },
                    // Incoming arguments are read-only: an empty range.
                    Place::Incoming(i) => Op::Store {
                        class,
                        in_frame: false,
                        src,
                        index: vals.get(MOperand::Imm(i64::from(i))),
                        off: 0,
                        len: 0,
                    },
                }
            }
            MInst::Call {
                callee,
                num_stack_args: n,
            } => {
                let fits = n <= self.f.max_outgoing;
                match callee {
                    MCallee::Direct(t) => {
                        assert!(t.index() < self.module.funcs.len(), "call to missing {t}");
                        let k = self
                            .known
                            .binary_search_by_key(&t.0, |&(c, _)| c)
                            .expect("direct callees have ledger entries");
                        Op::Call {
                            callee: t.0,
                            edge: self.known[k].1,
                            n,
                            fits,
                        }
                    }
                    MCallee::Indirect(t) => Op::CallIndirect {
                        target: vals.get(t),
                        n,
                        fits,
                    },
                }
            }
            MInst::FuncAddr { dst, func } => Op::Copy {
                dst: vals.reg(dst),
                src: vals.get(MOperand::Imm(func.index() as i64)),
            },
            MInst::Print { arg } => Op::Print { arg: vals.get(arg) },
        }
    }

    fn term(&self, term: &MTerminator, vals: &mut Values) -> Op {
        match *term {
            MTerminator::Ret => Op::Ret,
            MTerminator::Br(t) => {
                let (pc, block) = self.block(t);
                Op::Br { pc, block }
            }
            MTerminator::CondBr {
                cond,
                then_to,
                else_to,
            } => {
                let (then_pc, then_block) = self.block(then_to);
                let (else_pc, else_block) = self.block(else_to);
                Op::CondBr {
                    cond: vals.get(cond),
                    then_pc,
                    then_block,
                    else_pc,
                    else_block,
                }
            }
        }
    }
}

/// The source instruction decoded at `pc` (never a terminator: only
/// instructions trap with a description).
fn source_inst<'m>(module: &'m MModule, prog: &Program, pc: usize) -> &'m MInst {
    let block = prog.block_pc.partition_point(|&s| s as usize <= pc) - 1;
    let func = prog
        .funcs
        .partition_point(|f| f.first_block as usize <= block)
        - 1;
    let f = &module.funcs[FuncId(func as u32)];
    let b = &f.blocks[BlockId((block - prog.funcs[func].first_block as usize) as u32)];
    &b.insts[pc - prog.block_pc[block] as usize]
}

/// The out-of-bounds trap of the access at `pc` with offending `index`;
/// the object's description comes from the source instruction.
fn out_of_bounds(module: &MModule, prog: &Program, pc: usize, index: i64) -> SimTrap {
    let inst = source_inst(module, prog, pc);
    let what = match *inst {
        MInst::Load { addr, .. } | MInst::Store { addr, .. } => match addr {
            MAddress::Global { global, .. } => {
                format!("global `{}`", module.globals[global].name)
            }
            MAddress::Frame { slot, .. } => format!("frame slot {slot}"),
            MAddress::Incoming(_) if matches!(inst, MInst::Store { .. }) => {
                "incoming arguments (write)".into()
            }
            MAddress::Incoming(_) => "incoming arguments".into(),
            MAddress::Outgoing(_) => "outgoing arguments".into(),
        },
        MInst::Call { .. } => "outgoing-argument area".into(),
        ref other => unreachable!("{other:?} has no bounds"),
    };
    SimTrap::OutOfBounds { what, index }
}

/// Where an activation is: the current one lives in a local, suspended
/// callers on a stack.
#[derive(Clone, Copy)]
struct Activation {
    /// Next instruction.
    pc: usize,
    func: usize,
    /// Start of the activation's frame in memory.
    fp: usize,
    /// Its incoming stack arguments: `in_len` cells at `in_base`, the
    /// first cells of the caller's outgoing-argument area.
    in_base: usize,
    in_len: usize,
    /// Ledger id of the call edge that created it.
    edge: usize,
    /// Start of its preserved register values.
    saved_base: usize,
}

/// Runs `main` of a lowered module.
///
/// # Errors
///
/// Returns the [`SimTrap`] that stopped execution.
pub fn run(module: &MModule, regs: &RegFile, opts: &SimOptions) -> Result<SimResult, SimTrap> {
    let main = module.main.ok_or(SimTrap::NoMain)?;
    // Memory holds the globals, then one frame per activation.
    let (prog, mut mem, mut ledger) = decode(module, regs, opts, main);
    let (code, funcs) = (&prog.code, &prog.funcs);

    let mut vals = vec![0i64; regs.num_regs()];
    vals.extend_from_slice(&prog.consts);
    let mut block_counts = vec![0u64; prog.block_pc.len()];
    let mut saved: Vec<i64> = Vec::new();
    let mut callers: Vec<Activation> = Vec::new();
    let mut depth_hist = Log2Histogram::new();
    let mut output = Vec::new();
    let mut cycles = 0u64;

    // Starts `func` with a zeroed frame, snapshotting the registers it
    // must preserve.
    macro_rules! enter {
        ($func:expr, $edge:expr, $in_base:expr, $in_len:expr) => {{
            let info = &funcs[$func];
            let fp = mem.len();
            mem.resize(fp + info.frame_size, 0);
            let saved_base = saved.len();
            let must = &prog.preserve[info.preserve.clone()];
            saved.extend(must.iter().map(|r| vals[r.index()]));
            depth_hist.observe(callers.len() as u64 + 1);
            block_counts[info.entry_block as usize] += 1;
            Activation {
                pc: info.entry_pc as usize,
                func: $func,
                fp,
                in_base: $in_base,
                in_len: $in_len,
                edge: $edge,
                saved_base,
            }
        }};
    }
    // `main` has no caller and no stack arguments.
    let mut cur = enter!(main.index(), 0, 0, 0);

    loop {
        let Inst { cost, op } = code[cur.pc];
        cycles += cost;
        if cycles > opts.fuel {
            return Err(SimTrap::OutOfFuel);
        }
        let at = cur.pc;
        cur.pc += 1;
        let (callee, edge, n, fits) = match op {
            Op::Copy { dst, src } => {
                vals[dst as usize] = vals[src as usize];
                continue;
            }
            Op::Bin { op, dst, lhs, rhs } => {
                let v = op.eval(vals[lhs as usize], vals[rhs as usize]);
                vals[dst as usize] = v.ok_or(SimTrap::DivideByZero)?;
                continue;
            }
            Op::Un { op, dst, src } => {
                vals[dst as usize] = op.eval(vals[src as usize]);
                continue;
            }
            Op::Load {
                class,
                in_frame,
                dst,
                index,
                off,
                len,
            } => {
                let i = vals[index as usize];
                if i as u64 >= u64::from(len) {
                    return Err(out_of_bounds(module, &prog, at, i));
                }
                let base = if in_frame { cur.fp } else { 0 };
                vals[dst as usize] = mem[base + off as usize + i as usize];
                ledger.count_load(cur.edge, class);
                continue;
            }
            Op::Store {
                class,
                in_frame,
                src,
                index,
                off,
                len,
            } => {
                let i = vals[index as usize];
                if i as u64 >= u64::from(len) {
                    return Err(out_of_bounds(module, &prog, at, i));
                }
                let base = if in_frame { cur.fp } else { 0 };
                mem[base + off as usize + i as usize] = vals[src as usize];
                ledger.count_store(cur.edge, class);
                continue;
            }
            Op::LoadIncoming { class, dst, i } => {
                if i as usize >= cur.in_len {
                    return Err(out_of_bounds(module, &prog, at, i64::from(i)));
                }
                vals[dst as usize] = mem[cur.in_base + i as usize];
                ledger.count_load(cur.edge, class);
                continue;
            }
            Op::Print { arg } => {
                output.push(vals[arg as usize]);
                continue;
            }
            Op::Br { pc, block } => {
                cur.pc = pc as usize;
                block_counts[block as usize] += 1;
                continue;
            }
            Op::CondBr {
                cond,
                then_pc,
                then_block,
                else_pc,
                else_block,
            } => {
                let (pc, block) = if vals[cond as usize] != 0 {
                    (then_pc, then_block)
                } else {
                    (else_pc, else_block)
                };
                cur.pc = pc as usize;
                block_counts[block as usize] += 1;
                continue;
            }
            Op::Ret => {
                let must = &prog.preserve[funcs[cur.func].preserve.clone()];
                for (&reg, &before) in must.iter().zip(&saved[cur.saved_base..]) {
                    let after = vals[reg.index()];
                    if after != before {
                        return Err(SimTrap::ConventionViolation {
                            func: module.funcs[FuncId(cur.func as u32)].name.clone(),
                            reg,
                            before,
                            after,
                        });
                    }
                }
                saved.truncate(cur.saved_base);
                mem.truncate(cur.fp);
                match callers.pop() {
                    Some(caller) => cur = caller,
                    None => break,
                }
                continue;
            }
            Op::Call {
                callee,
                edge,
                n,
                fits,
            } => (callee as usize, edge as usize, n, fits),
            Op::CallIndirect { target, n, fits } => {
                let raw = vals[target as usize];
                if raw < 0 || raw as usize >= funcs.len() {
                    return Err(SimTrap::BadIndirectTarget(raw));
                }
                (raw as usize, ledger.id(cur.func, raw as u32), n, fits)
            }
        };
        // A call. The first `n` cells of the caller's outgoing area become
        // the callee's incoming stack arguments (the two areas coincide
        // across the frame boundary on a real stack).
        if !fits {
            return Err(out_of_bounds(module, &prog, at, i64::from(n) - 1));
        }
        if callers.len() + 1 >= opts.max_depth {
            return Err(SimTrap::StackOverflow);
        }
        ledger.entries[edge].calls += 1;
        let in_base = cur.fp + funcs[cur.func].out_off;
        callers.push(cur);
        cur = enter!(callee, edge, in_base, n as usize);
    }

    let per_func = per_function_stats(module, &opts.cost, &prog, &block_counts);
    let mut stats = Stats {
        cycles,
        depth_hist,
        ..Stats::default()
    };
    for f in &per_func {
        stats.insts += f.insts;
        stats.calls += f.calls;
        for c in 0..4 {
            stats.loads_by_class[c] += f.loads_by_class[c];
            stats.stores_by_class[c] += f.stores_by_class[c];
        }
    }
    debug_assert_eq!(cycles, per_func.iter().map(|f| f.cycles).sum::<u64>());
    stats.per_func = per_func;

    let rows = ledger.into_rows(&opts.cost);
    stats.call_edges = rows
        .iter()
        .filter(|e| e.calls > 0)
        .map(|e| (e.caller, e.callee, e.calls))
        .collect();
    stats.edge_penalty = rows;

    let block_profile = opts.collect_block_profile.then(|| {
        prog.funcs
            .iter()
            .zip(module.funcs.values())
            .map(|(info, f)| {
                let fb = info.first_block as usize;
                block_counts[fb..fb + f.blocks.len()].to_vec()
            })
            .collect()
    });
    Ok(SimResult {
        output,
        return_value: vals[regs.ret_reg().index()],
        stats,
        block_profile,
    })
}

/// Per-function counts of a finished run. Every block a run enters runs
/// to its end before `main` returns, so each count is the block's entry
/// count times what the block contains.
fn per_function_stats(
    module: &MModule,
    cost: &CostModel,
    prog: &Program,
    block_counts: &[u64],
) -> Vec<FuncStats> {
    prog.funcs
        .iter()
        .zip(module.funcs.values())
        .map(|(info, f)| {
            let mut s = FuncStats::default();
            let counts = &block_counts[info.first_block as usize..];
            for (b, &n) in f.blocks.values().zip(counts) {
                if n == 0 {
                    continue;
                }
                s.insts += n * (b.insts.len() as u64 + 1);
                s.cycles += n * term_cost(cost, &b.term);
                for inst in &b.insts {
                    s.cycles += n * inst_cost(cost, inst);
                    match inst {
                        MInst::Load { class, .. } => s.loads_by_class[class_index(*class)] += n,
                        MInst::Store { class, .. } => s.stores_by_class[class_index(*class)] += n,
                        MInst::Call { .. } => s.calls += n,
                        _ => {}
                    }
                }
            }
            s
        })
        .collect()
}
