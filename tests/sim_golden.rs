//! Golden digests of the simulator's complete observable result.
//!
//! Every case compiles a program, runs it with the preservation checker
//! and block-profile collection on, and folds the whole [`SimResult`] —
//! output, return value, every [`Stats`] field (per-function counts, the
//! depth histogram, call edges, the per-edge penalty ledger) and the block
//! profile — into one FNV-1a digest. The digests were recorded with the
//! original block-walking simulator; any change to the simulator's
//! execution strategy must reproduce them bit for bit.
//!
//! The hand-built modules at the bottom pin every [`SimTrap`] variant:
//! its exact value, its text and which trap wins when two apply to the
//! same instruction.

use ipra_core::config::AllocOptions;
use ipra_driver::{compile_only, Config};
use ipra_ir::{BinOp, BlockId, EntityVec, FuncId, GlobalData, GlobalId};
use ipra_machine::{
    FrameSlot, FrameSlotId, MAddress, MBlock, MCallee, MFunction, MInst, MModule, MOperand,
    MTerminator, MemClass, PReg, RegClass, RegFile, RegMask, SlotPurpose, Target,
};
use ipra_sim::{run, SimOptions, SimResult, SimTrap, Stats};

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, vs: &[u64]) {
        self.word(vs.len() as u64);
        for &v in vs {
            self.word(v);
        }
    }
}

fn stats_into(h: &mut Fnv, s: &Stats) {
    h.word(s.cycles);
    h.word(s.insts);
    h.word(s.calls);
    h.words(&s.loads_by_class);
    h.words(&s.stores_by_class);
    h.word(s.depth_hist.count);
    h.word(s.depth_hist.sum);
    h.word(s.depth_hist.max);
    for (lo, hi, c) in s.depth_hist.buckets() {
        h.words(&[lo, hi, c]);
    }
    h.word(s.per_func.len() as u64);
    for f in &s.per_func {
        h.words(&[f.cycles, f.insts, f.calls]);
        h.words(&f.loads_by_class);
        h.words(&f.stores_by_class);
    }
    h.word(s.call_edges.len() as u64);
    for &(a, b, n) in &s.call_edges {
        h.words(&[u64::from(a), u64::from(b), n]);
    }
    h.word(s.edge_penalty.len() as u64);
    for e in &s.edge_penalty {
        h.words(&[
            u64::from(e.caller),
            u64::from(e.callee),
            e.calls,
            e.sr_loads,
            e.sr_stores,
            e.spill_loads,
            e.spill_stores,
            e.penalty_cycles,
        ]);
    }
}

fn digest(r: &SimResult) -> u64 {
    let mut h = Fnv::new();
    h.words(&r.output.iter().map(|&v| v as u64).collect::<Vec<_>>());
    h.word(r.return_value as u64);
    stats_into(&mut h, &r.stats);
    match &r.block_profile {
        None => h.word(0),
        Some(p) => {
            h.word(1 + p.len() as u64);
            for f in p {
                h.words(f);
            }
        }
    }
    h.0
}

/// Compiles workload `name` under `config` and digests a checked,
/// profiled simulation.
fn workload_digest(name: &str, config: &Config) -> u64 {
    let w = ipra_workloads::by_name(name).expect("known workload");
    let module = ipra_workloads::compile_workload(w).expect("workload compiles");
    let compiled = compile_only(&module, config);
    let regs = &config.target.regs;
    let opts = SimOptions::for_target(regs)
        .check_preservation(compiled.clobber_masks.clone())
        .with_block_profile();
    let r = run(&compiled.mmodule, regs, &opts)
        .unwrap_or_else(|t| panic!("[{name}/{}] simulator: {t}", config.name));
    digest(&r)
}

fn check_digests(config: &Config, expected: &[(&str, u64)]) {
    let actual: Vec<(&str, u64)> = expected
        .iter()
        .map(|&(name, _)| (name, workload_digest(name, config)))
        .collect();
    assert_eq!(
        actual, expected,
        "[{}] simulator result digests moved; actual values: {actual:#x?}",
        config.name
    );
}

#[test]
fn every_workload_at_o3_matches_its_golden_digest() {
    let expected: &[(&str, u64)] = &[
        ("nim", 0xa0d2bcae66a37c32),
        ("map", 0x00224b0bc546256e),
        ("calcc", 0x64c3918568933132),
        ("diff", 0xcf2f46e164e30c80),
        ("dhrystone", 0x75d2069afcdcda0e),
        ("stanford", 0x45cea9ea93cac315),
        ("pf", 0x76b62b5d8f689600),
        ("awk", 0x7bf6fc2fc10c530e),
        ("tex", 0xcdc8bf52a8e43a8a),
        ("ccom", 0xd9210d2fa3c55f2c),
        ("as1", 0xc6fe975e99f0fd95),
        ("upas", 0x3db912c10ba4031c),
        ("uopt", 0x728949d03f6dc4ec),
    ];
    let pinned: Vec<&str> = expected.iter().map(|&(n, _)| n).collect();
    let all: Vec<&str> = ipra_workloads::all().iter().map(|w| w.name).collect();
    assert_eq!(pinned, all, "every workload is pinned exactly once");
    check_digests(&Config::c(), expected);
}

/// Checks `config` on the three smallest workloads (the `--small`
/// corpus of the table drivers).
fn check_small_corpus(config: &Config, expected: &[(&str, u64)]) {
    let small: Vec<&str> = ipra_workloads::all()
        .into_iter()
        .take(3)
        .map(|w| w.name)
        .collect();
    let pinned: Vec<&str> = expected.iter().map(|&(n, _)| n).collect();
    assert_eq!(pinned, small, "the small corpus is pinned exactly");
    check_digests(config, expected);
}

#[test]
fn small_corpus_at_o2_without_shrink_wrap_matches_its_golden_digest() {
    let expected: &[(&str, u64)] = &[
        ("nim", 0xc292a6a3a2bca13a),
        ("map", 0xad1781285d282140),
        ("calcc", 0x74a1ac5115ff6c32),
    ];
    check_small_corpus(&Config::o2_base(), expected);
}

#[test]
fn small_corpus_at_o0_matches_its_golden_digest() {
    let expected: &[(&str, u64)] = &[
        ("nim", 0x2df6fbe2cd34b137),
        ("map", 0xe1378ba457a684be),
        ("calcc", 0x0470179cb2793fa7),
    ];
    check_small_corpus(&Config::no_alloc(), expected);
}

#[test]
fn small_corpus_on_embedded8_matches_its_golden_digest() {
    let config = Config {
        name: "embedded8".into(),
        target: Target::by_name("embedded8").expect("registered target"),
        opts: AllocOptions::o3(),
    };
    let expected: &[(&str, u64)] = &[
        ("nim", 0xdc9ee9f4a5172076),
        ("map", 0x9f97081b42d5f7eb),
        ("calcc", 0x57735705f60a68b4),
    ];
    check_small_corpus(&config, expected);
}

// ---------------------------------------------------------------------
// Traps on hand-built modules.
// ---------------------------------------------------------------------

fn func(name: &str, insts: Vec<MInst>, term: MTerminator) -> MFunction {
    MFunction {
        name: name.into(),
        entry: BlockId(0),
        blocks: [MBlock { insts, term }].into_iter().collect(),
        frame: EntityVec::new(),
        num_params: 0,
        max_outgoing: 0,
        is_leaf: false,
    }
}

fn module(funcs: Vec<MFunction>, main: usize) -> MModule {
    MModule {
        funcs: funcs.into_iter().collect(),
        globals: EntityVec::new(),
        main: Some(FuncId(main as u32)),
    }
}

fn trap_of(m: &MModule, opts: &SimOptions) -> SimTrap {
    let regs = RegFile::mips_like();
    run(m, &regs, opts).expect_err("the module must trap")
}

fn opts() -> SimOptions {
    SimOptions::for_target(&RegFile::mips_like())
}

fn t0() -> PReg {
    RegFile::mips_like().allocatable()[4]
}

fn call(target: u32, n: u32) -> MInst {
    MInst::Call {
        callee: MCallee::Direct(FuncId(target)),
        num_stack_args: n,
    }
}

fn load(addr: MAddress) -> MInst {
    MInst::Load {
        dst: t0(),
        addr,
        class: MemClass::ScalarHome,
    }
}

fn store(addr: MAddress) -> MInst {
    MInst::Store {
        src: MOperand::Imm(5),
        addr,
        class: MemClass::ScalarHome,
    }
}

fn assert_trap(m: &MModule, opts: &SimOptions, want: SimTrap, text: &str) {
    let got = trap_of(m, opts);
    assert_eq!(got, want);
    assert_eq!(got.to_string(), text);
}

#[test]
fn divide_by_zero_traps() {
    let m = module(
        vec![func(
            "main",
            vec![MInst::Bin {
                op: BinOp::Rem,
                dst: t0(),
                lhs: MOperand::Imm(7),
                rhs: MOperand::Imm(0),
            }],
            MTerminator::Ret,
        )],
        0,
    );
    assert_trap(&m, &opts(), SimTrap::DivideByZero, "division by zero");
}

#[test]
fn fuel_is_charged_before_a_divide_by_zero_is_detected() {
    // Copy (1 cycle) then Div (30 cycles) by zero: with 30 cycles of fuel
    // the divide's own charge exhausts the budget first.
    let m = module(
        vec![func(
            "main",
            vec![
                MInst::Copy {
                    dst: t0(),
                    src: MOperand::Imm(0),
                },
                MInst::Bin {
                    op: BinOp::Div,
                    dst: t0(),
                    lhs: MOperand::Imm(1),
                    rhs: MOperand::Reg(t0()),
                },
            ],
            MTerminator::Ret,
        )],
        0,
    );
    let mut o = opts();
    o.fuel = 30;
    assert_trap(&m, &o, SimTrap::OutOfFuel, "cycle budget exhausted");
    // One more cycle and the divide itself traps.
    o.fuel = 31;
    assert_trap(&m, &o, SimTrap::DivideByZero, "division by zero");
}

#[test]
fn fuel_exhaustion_in_a_loop_traps() {
    let m = module(vec![func("main", vec![], MTerminator::Br(BlockId(0)))], 0);
    let mut o = opts();
    o.fuel = 1000;
    assert_trap(&m, &o, SimTrap::OutOfFuel, "cycle budget exhausted");
}

#[test]
fn missing_main_traps() {
    let mut m = module(vec![func("f", vec![], MTerminator::Ret)], 0);
    m.main = None;
    assert_trap(&m, &opts(), SimTrap::NoMain, "module has no main");
}

#[test]
fn bad_indirect_targets_trap_with_the_raw_value() {
    let n = 2; // one past the last function
    for (raw, text) in [
        (n, "indirect call through non-function value 2"),
        (-1, "indirect call through non-function value -1"),
    ] {
        let m = module(
            vec![
                func("leaf", vec![], MTerminator::Ret),
                func(
                    "main",
                    vec![
                        MInst::Copy {
                            dst: t0(),
                            src: MOperand::Imm(raw),
                        },
                        MInst::Call {
                            callee: MCallee::Indirect(MOperand::Reg(t0())),
                            num_stack_args: 0,
                        },
                    ],
                    MTerminator::Ret,
                ),
            ],
            1,
        );
        assert_trap(&m, &opts(), SimTrap::BadIndirectTarget(raw), text);
    }
}

#[test]
fn bad_indirect_target_wins_over_a_short_outgoing_area() {
    // The target is resolved before the stack-argument count is checked.
    let m = module(
        vec![func(
            "main",
            vec![MInst::Call {
                callee: MCallee::Indirect(MOperand::Imm(9)),
                num_stack_args: 3,
            }],
            MTerminator::Ret,
        )],
        0,
    );
    assert_trap(
        &m,
        &opts(),
        SimTrap::BadIndirectTarget(9),
        "indirect call through non-function value 9",
    );
}

#[test]
fn unbounded_recursion_overflows_the_frame_stack() {
    let m = module(
        vec![
            func("rec", vec![call(0, 0)], MTerminator::Ret),
            func("main", vec![call(0, 0)], MTerminator::Ret),
        ],
        1,
    );
    let mut o = opts();
    o.max_depth = 64;
    assert_trap(&m, &o, SimTrap::StackOverflow, "frame stack overflow");
}

#[test]
fn a_short_outgoing_area_wins_over_stack_overflow() {
    // rec passes 2 stack args from a 1-cell outgoing area: the area check
    // comes before the depth check, even at the depth limit.
    let mut rec = func("rec", vec![call(0, 2)], MTerminator::Ret);
    rec.max_outgoing = 1;
    let m = module(
        vec![rec, func("main", vec![call(0, 0)], MTerminator::Ret)],
        1,
    );
    let mut o = opts();
    o.max_depth = 2;
    assert_trap(
        &m,
        &o,
        SimTrap::OutOfBounds {
            what: "outgoing-argument area".into(),
            index: 1,
        },
        "index 1 out of bounds for outgoing-argument area",
    );
}

#[test]
fn global_accesses_are_bounds_checked() {
    let mut m = module(
        vec![func(
            "main",
            vec![
                load(MAddress::Global {
                    global: GlobalId(0),
                    index: MOperand::Imm(2),
                }),
                store(MAddress::Global {
                    global: GlobalId(0),
                    index: MOperand::Reg(t0()),
                }),
            ],
            MTerminator::Ret,
        )],
        0,
    );
    m.globals.push(GlobalData {
        name: "tbl".into(),
        size: 3,
        init: vec![4, 5, -3],
    });
    // tbl[2] = -3 is in bounds; storing to tbl[-3] is not.
    assert_trap(
        &m,
        &opts(),
        SimTrap::OutOfBounds {
            what: "global `tbl`".into(),
            index: -3,
        },
        "index -3 out of bounds for global `tbl`",
    );
    // A load past the end traps too.
    m.funcs[FuncId(0)].blocks[BlockId(0)].insts[0] = load(MAddress::Global {
        global: GlobalId(0),
        index: MOperand::Imm(3),
    });
    assert_trap(
        &m,
        &opts(),
        SimTrap::OutOfBounds {
            what: "global `tbl`".into(),
            index: 3,
        },
        "index 3 out of bounds for global `tbl`",
    );
}

#[test]
fn frame_slot_accesses_are_bounds_checked() {
    let mut main = func(
        "main",
        vec![
            store(MAddress::Frame {
                slot: FrameSlotId(1),
                index: MOperand::Imm(1),
            }),
            MInst::Copy {
                dst: t0(),
                src: MOperand::Imm(2),
            },
            load(MAddress::Frame {
                slot: FrameSlotId(1),
                index: MOperand::Reg(t0()),
            }),
        ],
        MTerminator::Ret,
    );
    for size in [3, 2] {
        main.frame.push(FrameSlot {
            size,
            purpose: SlotPurpose::Home,
            label: "a".into(),
        });
    }
    let m = module(vec![main], 0);
    assert_trap(
        &m,
        &opts(),
        SimTrap::OutOfBounds {
            what: "frame slot fs1".into(),
            index: 2,
        },
        "index 2 out of bounds for frame slot fs1",
    );
}

#[test]
fn incoming_arguments_are_bounded_by_the_call_sites_count() {
    // main passes n = 2 stack args out of a 3-cell area; the callee may
    // read Incoming(0..2) but not Incoming(2), even though the caller's
    // area has a third cell.
    for (i, trap) in [(1, None), (2, Some(2))] {
        let child = func("child", vec![load(MAddress::Incoming(i))], MTerminator::Ret);
        let mut main = func(
            "main",
            vec![
                store(MAddress::Outgoing(0)),
                store(MAddress::Outgoing(1)),
                store(MAddress::Outgoing(2)),
                call(0, 2),
            ],
            MTerminator::Ret,
        );
        main.max_outgoing = 3;
        let m = module(vec![child, main], 1);
        match trap {
            None => {
                let regs = RegFile::mips_like();
                assert!(run(&m, &regs, &opts()).is_ok());
            }
            Some(index) => assert_trap(
                &m,
                &opts(),
                SimTrap::OutOfBounds {
                    what: "incoming arguments".into(),
                    index,
                },
                "index 2 out of bounds for incoming arguments",
            ),
        }
    }
}

#[test]
fn main_has_no_incoming_arguments() {
    let m = module(
        vec![func(
            "main",
            vec![load(MAddress::Incoming(0))],
            MTerminator::Ret,
        )],
        0,
    );
    assert_trap(
        &m,
        &opts(),
        SimTrap::OutOfBounds {
            what: "incoming arguments".into(),
            index: 0,
        },
        "index 0 out of bounds for incoming arguments",
    );
}

#[test]
fn incoming_arguments_are_read_only() {
    let m = module(
        vec![func(
            "main",
            vec![store(MAddress::Incoming(0))],
            MTerminator::Ret,
        )],
        0,
    );
    assert_trap(
        &m,
        &opts(),
        SimTrap::OutOfBounds {
            what: "incoming arguments (write)".into(),
            index: 0,
        },
        "index 0 out of bounds for incoming arguments (write)",
    );
}

#[test]
fn outgoing_arguments_are_bounds_checked() {
    for inst in [load(MAddress::Outgoing(2)), store(MAddress::Outgoing(2))] {
        let mut main = func("main", vec![inst], MTerminator::Ret);
        main.max_outgoing = 2;
        let m = module(vec![main], 0);
        assert_trap(
            &m,
            &opts(),
            SimTrap::OutOfBounds {
                what: "outgoing arguments".into(),
                index: 2,
            },
            "index 2 out of bounds for outgoing arguments",
        );
    }
}

#[test]
fn a_clobbered_preserved_register_is_a_convention_violation() {
    let regs = RegFile::mips_like();
    let s0 = regs
        .allocatable_of(RegClass::CalleeSaved)
        .next()
        .expect("has callee-saved regs");
    let s1 = regs
        .allocatable_of(RegClass::CalleeSaved)
        .nth(1)
        .expect("has two callee-saved regs");
    // bad_child changes s1 and then s0; the lower-numbered register is
    // reported.
    let child = func(
        "bad_child",
        vec![
            MInst::Copy {
                dst: s1,
                src: MOperand::Imm(-8),
            },
            MInst::Copy {
                dst: s0,
                src: MOperand::Imm(99),
            },
        ],
        MTerminator::Ret,
    );
    let main = func(
        "main",
        vec![
            MInst::Copy {
                dst: s0,
                src: MOperand::Imm(1),
            },
            call(0, 0),
        ],
        MTerminator::Ret,
    );
    let m = module(vec![child, main], 1);
    let (lo, hi) = if s0.0 < s1.0 { (s0, s1) } else { (s1, s0) };
    let (before, after) = if lo == s0 { (1, 99) } else { (0, -8) };
    let masks = vec![RegMask::EMPTY, RegMask::EMPTY];
    let o = opts().check_preservation(masks);
    assert_trap(
        &m,
        &o,
        SimTrap::ConventionViolation {
            func: "bad_child".into(),
            reg: lo,
            before,
            after,
        },
        &format!("`bad_child` must preserve {lo} but changed it from {before} to {after}"),
    );
    // With the lower register declared clobbered, the other one is caught.
    let (before, after) = if hi == s0 { (1, 99) } else { (0, -8) };
    let o = opts().check_preservation(vec![RegMask::single(lo), RegMask::EMPTY]);
    assert_eq!(
        trap_of(&m, &o),
        SimTrap::ConventionViolation {
            func: "bad_child".into(),
            reg: hi,
            before,
            after,
        }
    );
}
