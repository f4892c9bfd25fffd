//! Reference interpreter over virtual registers.
//!
//! This interpreter executes IR directly with unlimited registers and is the
//! *semantic oracle* for the whole pipeline: every optimization
//! configuration must produce machine code whose simulated output equals the
//! output computed here.

use std::fmt;

use crate::ids::{FuncId, Vreg};
use crate::instr::{Address, Callee, Inst, Operand, Terminator};
use crate::module::Module;

/// Why execution stopped abnormally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Trap {
    /// Integer division or remainder by zero (or `i64::MIN / -1`).
    DivideByZero,
    /// Memory access outside a global or slot.
    OutOfBounds {
        /// Description of the object.
        what: String,
        /// Offending index.
        index: i64,
        /// Object size.
        size: u32,
    },
    /// Indirect call through a value that is not a function address.
    BadIndirectTarget(i64),
    /// Call stack exceeded the configured limit.
    StackOverflow,
    /// Instruction budget exhausted.
    OutOfFuel,
    /// A call expected a return value but the callee returned none.
    MissingReturnValue(String),
    /// Module has no `main`.
    NoMain,
    /// Wrong number of arguments to the entry function.
    BadArity {
        /// Function called.
        func: String,
        /// Arguments provided.
        got: usize,
        /// Parameters expected.
        want: usize,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::DivideByZero => write!(f, "division by zero"),
            Trap::OutOfBounds { what, index, size } => {
                write!(f, "index {index} out of bounds for {what} of size {size}")
            }
            Trap::BadIndirectTarget(v) => write!(f, "indirect call through non-function value {v}"),
            Trap::StackOverflow => write!(f, "call stack overflow"),
            Trap::OutOfFuel => write!(f, "instruction budget exhausted"),
            Trap::MissingReturnValue(name) => {
                write!(
                    f,
                    "function `{name}` returned no value to a caller expecting one"
                )
            }
            Trap::NoMain => write!(f, "module has no main function"),
            Trap::BadArity { func, got, want } => {
                write!(f, "function `{func}` called with {got} args, wants {want}")
            }
        }
    }
}

impl Trap {
    /// True for traps that mean "execution exceeded a configured resource
    /// budget" ([`Trap::OutOfFuel`], [`Trap::StackOverflow`]) rather than a
    /// semantic error in the program. Differential harnesses skip seeds
    /// whose oracle run hits a resource limit instead of reporting them as
    /// miscompiles.
    pub fn is_resource_limit(&self) -> bool {
        matches!(self, Trap::OutOfFuel | Trap::StackOverflow)
    }
}

impl std::error::Error for Trap {}

/// Result of a successful execution.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ExecResult {
    /// Values emitted by `print`, in order.
    pub output: Vec<i64>,
    /// Return value of the entry function (0 when it returned none).
    pub return_value: i64,
    /// Number of IR instructions executed (terminators included).
    pub insts_executed: u64,
    /// Number of call instructions executed.
    pub calls_executed: u64,
}

/// Interpreter configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InterpOptions {
    /// Maximum number of executed instructions before [`Trap::OutOfFuel`].
    pub fuel: u64,
    /// Maximum call depth before [`Trap::StackOverflow`].
    pub max_depth: usize,
}

impl Default for InterpOptions {
    fn default() -> Self {
        InterpOptions {
            fuel: 500_000_000,
            max_depth: 10_000,
        }
    }
}

impl InterpOptions {
    /// Returns options with the instruction budget replaced.
    pub fn with_fuel(self, fuel: u64) -> Self {
        InterpOptions { fuel, ..self }
    }

    /// Returns options with the call-depth limit replaced.
    pub fn with_max_depth(self, max_depth: usize) -> Self {
        InterpOptions { max_depth, ..self }
    }
}

struct Interp<'a> {
    module: &'a Module,
    globals: Vec<Vec<i64>>,
    /// One value stack for every activation: a frame holds the function's
    /// vregs, then its slots' cells.
    stack: Vec<i64>,
    /// Per function, the frame offset of each slot, starting at
    /// `slot_start[f]`.
    slot_off: Vec<usize>,
    slot_start: Vec<usize>,
    /// Per function, its frame's cells.
    frame_size: Vec<usize>,
    output: Vec<i64>,
    fuel: u64,
    max_depth: usize,
    insts: u64,
    calls: u64,
}

fn read(stack: &[i64], base: usize, o: Operand) -> i64 {
    match o {
        Operand::Reg(v) => stack[base + v.index()],
        Operand::Imm(i) => i,
    }
}

impl<'a> Interp<'a> {
    fn new(module: &'a Module, opts: InterpOptions) -> Self {
        let mut slot_off = Vec::new();
        let mut slot_start = Vec::with_capacity(module.funcs.len());
        let mut frame_size = Vec::with_capacity(module.funcs.len());
        for f in module.funcs.values() {
            slot_start.push(slot_off.len());
            let mut size = f.num_vregs();
            for s in f.slots.values() {
                slot_off.push(size);
                size += s.size as usize;
            }
            frame_size.push(size);
        }
        Interp {
            module,
            globals: module
                .globals
                .values()
                .map(|g| {
                    let mut v = vec![0i64; g.size as usize];
                    for (i, init) in g.init.iter().enumerate().take(g.size as usize) {
                        v[i] = *init;
                    }
                    v
                })
                .collect(),
            stack: Vec::new(),
            slot_off,
            slot_start,
            frame_size,
            output: Vec::new(),
            fuel: opts.fuel,
            max_depth: opts.max_depth,
            insts: 0,
            calls: 0,
        }
    }

    fn charge(&mut self) -> Result<(), Trap> {
        if self.insts >= self.fuel {
            return Err(Trap::OutOfFuel);
        }
        self.insts += 1;
        Ok(())
    }

    fn global_cell(&mut self, g: crate::ids::GlobalId, index: i64) -> Result<&mut i64, Trap> {
        let data = &self.module.globals[g];
        if index < 0 || index >= data.size as i64 {
            return Err(Trap::OutOfBounds {
                what: format!("global `{}`", data.name),
                index,
                size: data.size,
            });
        }
        Ok(&mut self.globals[g.index()][index as usize])
    }

    /// Checks the depth limit and `func`'s arity, then pushes its zeroed
    /// frame and returns the frame's base.
    fn push_frame(&mut self, func: FuncId, nargs: usize, depth: usize) -> Result<usize, Trap> {
        if depth >= self.max_depth {
            return Err(Trap::StackOverflow);
        }
        let f = &self.module.funcs[func];
        if f.params.len() != nargs {
            return Err(Trap::BadArity {
                func: f.name.clone(),
                got: nargs,
                want: f.params.len(),
            });
        }
        let base = self.stack.len();
        self.stack.resize(base + self.frame_size[func.index()], 0);
        Ok(base)
    }

    /// Index of cell `i` of `slot` in the frame at `base`.
    fn slot_cell(
        &self,
        func: FuncId,
        base: usize,
        slot: crate::ids::SlotId,
        i: i64,
    ) -> Result<usize, Trap> {
        let data = &self.module.funcs[func].slots[slot];
        if i < 0 || i >= i64::from(data.size) {
            return Err(Trap::OutOfBounds {
                what: format!("slot `{}`", data.name),
                index: i,
                size: data.size,
            });
        }
        Ok(base + self.slot_off[self.slot_start[func.index()] + slot.index()] + i as usize)
    }

    /// Runs `func` in the frame at `base` (pushed by [`Self::push_frame`],
    /// arguments already in place) and pops the frame.
    fn call(&mut self, func: FuncId, base: usize, depth: usize) -> Result<Option<i64>, Trap> {
        let f = &self.module.funcs[func];
        let mut block = f.entry;
        loop {
            let b = &f.blocks[block];
            for inst in &b.insts {
                self.charge()?;
                match inst {
                    Inst::Copy { dst, src } => {
                        self.stack[base + dst.index()] = read(&self.stack, base, *src);
                    }
                    Inst::Bin { op, dst, lhs, rhs } => {
                        let a = read(&self.stack, base, *lhs);
                        let c = read(&self.stack, base, *rhs);
                        self.stack[base + dst.index()] = op.eval(a, c).ok_or(Trap::DivideByZero)?;
                    }
                    Inst::Un { op, dst, src } => {
                        self.stack[base + dst.index()] = op.eval(read(&self.stack, base, *src));
                    }
                    Inst::Load { dst, addr } => {
                        let val = match addr {
                            Address::Global { global, index } => {
                                let i = read(&self.stack, base, *index);
                                *self.global_cell(*global, i)?
                            }
                            Address::Stack { slot, index } => {
                                let i = read(&self.stack, base, *index);
                                self.stack[self.slot_cell(func, base, *slot, i)?]
                            }
                        };
                        self.stack[base + dst.index()] = val;
                    }
                    Inst::Store { src, addr } => {
                        let val = read(&self.stack, base, *src);
                        match addr {
                            Address::Global { global, index } => {
                                let i = read(&self.stack, base, *index);
                                *self.global_cell(*global, i)? = val;
                            }
                            Address::Stack { slot, index } => {
                                let i = read(&self.stack, base, *index);
                                let cell = self.slot_cell(func, base, *slot, i)?;
                                self.stack[cell] = val;
                            }
                        }
                    }
                    Inst::Call {
                        callee,
                        args: call_args,
                        dst,
                    } => {
                        self.calls += 1;
                        let target = match callee {
                            Callee::Direct(id) => *id,
                            Callee::Indirect(t) => {
                                let raw = read(&self.stack, base, *t);
                                if raw < 0 || raw as usize >= self.module.funcs.len() {
                                    return Err(Trap::BadIndirectTarget(raw));
                                }
                                FuncId(raw as u32)
                            }
                        };
                        // Arguments go straight into the callee's frame.
                        let callee_base = self.push_frame(target, call_args.len(), depth + 1)?;
                        let params = &self.module.funcs[target].params;
                        for (p, a) in params.iter().zip(call_args) {
                            self.stack[callee_base + p.index()] = read(&self.stack, base, *a);
                        }
                        let ret = self.call(target, callee_base, depth + 1)?;
                        if let Some(d) = dst {
                            let v = ret.ok_or_else(|| {
                                Trap::MissingReturnValue(self.module.funcs[target].name.clone())
                            })?;
                            self.stack[base + d.index()] = v;
                        }
                    }
                    Inst::FuncAddr { dst, func } => {
                        self.stack[base + dst.index()] = func.index() as i64;
                    }
                    Inst::Print { arg } => {
                        let v = read(&self.stack, base, *arg);
                        self.output.push(v);
                    }
                }
            }
            self.charge()?;
            match &b.term {
                Terminator::Ret(v) => {
                    let ret = v.map(|v| read(&self.stack, base, v));
                    self.stack.truncate(base);
                    return Ok(ret);
                }
                Terminator::Br(t) => block = *t,
                Terminator::CondBr {
                    cond,
                    then_to,
                    else_to,
                } => {
                    block = if read(&self.stack, base, *cond) != 0 {
                        *then_to
                    } else {
                        *else_to
                    };
                }
            }
        }
    }
}

/// Runs `main` of `module` with default options.
///
/// # Errors
///
/// Returns the [`Trap`] that stopped execution.
pub fn run_module(module: &Module) -> Result<ExecResult, Trap> {
    run_module_with(module, InterpOptions::default())
}

/// Runs `main` of `module` with explicit options.
///
/// # Errors
///
/// Returns the [`Trap`] that stopped execution.
pub fn run_module_with(module: &Module, opts: InterpOptions) -> Result<ExecResult, Trap> {
    let main = module.main.ok_or(Trap::NoMain)?;
    run_function(module, main, &[], opts)
}

/// Calls an arbitrary function with arguments; used by unit tests.
///
/// # Errors
///
/// Returns the [`Trap`] that stopped execution.
pub fn run_function(
    module: &Module,
    func: FuncId,
    args: &[i64],
    opts: InterpOptions,
) -> Result<ExecResult, Trap> {
    let mut interp = Interp::new(module, opts);
    let base = interp.push_frame(func, args.len(), 0)?;
    for (p, a) in module.funcs[func].params.iter().zip(args) {
        interp.stack[base + p.index()] = *a;
    }
    let ret = interp.call(func, base, 0)?;
    Ok(ExecResult {
        output: interp.output,
        return_value: ret.unwrap_or(0),
        insts_executed: interp.insts,
        calls_executed: interp.calls,
    })
}

/// Unused marker to keep `Vreg` imported for doc links.
#[doc(hidden)]
pub fn _vreg_doc_anchor(_: Vreg) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::BinOp;
    use crate::module::GlobalData;

    fn fib_module() -> Module {
        let mut m = Module::new();
        let fib = m.declare_func("fib");
        {
            let mut b = FunctionBuilder::new("fib");
            let n = b.param("n");
            let rec = b.new_block();
            let c = b.bin(BinOp::Lt, n, 2);
            let base = b.current_block();
            let _ = base;
            let done = b.new_block();
            b.cond_br(c, done, rec);
            b.switch_to(rec);
            let n1 = b.bin(BinOp::Sub, n, 1);
            let f1 = b.call(fib, vec![n1.into()]);
            let n2 = b.bin(BinOp::Sub, n, 2);
            let f2 = b.call(fib, vec![n2.into()]);
            let s = b.bin(BinOp::Add, f1, f2);
            b.ret(Some(s.into()));
            b.switch_to(done);
            b.ret(Some(n.into()));
            m.define_func(fib, b.build());
        }
        let mut mb = FunctionBuilder::new("main");
        let r = mb.call(fib, vec![Operand::Imm(10)]);
        mb.print(r);
        mb.ret(None);
        let main = m.add_func(mb.build());
        m.main = Some(main);
        m
    }

    #[test]
    fn fib_10_is_55() {
        let m = fib_module();
        crate::verify::verify_module(&m).unwrap();
        let r = run_module(&m).unwrap();
        assert_eq!(r.output, vec![55]);
        assert!(
            r.calls_executed > 100,
            "recursive calls counted: {}",
            r.calls_executed
        );
    }

    #[test]
    fn globals_are_initialized_and_writable() {
        let mut m = Module::new();
        let g = m.add_global(GlobalData {
            name: "a".into(),
            size: 3,
            init: vec![7, 8],
        });
        let mut b = FunctionBuilder::new("main");
        let v = b.load(Address::Global {
            global: g,
            index: Operand::Imm(1),
        });
        b.print(v);
        b.store(
            v,
            Address::Global {
                global: g,
                index: Operand::Imm(2),
            },
        );
        let w = b.load(Address::Global {
            global: g,
            index: Operand::Imm(2),
        });
        b.print(w);
        b.ret(None);
        let id = m.add_func(b.build());
        m.main = Some(id);
        let r = run_module(&m).unwrap();
        assert_eq!(r.output, vec![8, 8]);
    }

    #[test]
    fn indirect_call_through_func_addr() {
        let mut m = Module::new();
        let sq = m.declare_func("sq");
        {
            let mut b = FunctionBuilder::new("sq");
            let x = b.param("x");
            let r = b.bin(BinOp::Mul, x, x);
            b.ret(Some(r.into()));
            m.define_func(sq, b.build());
        }
        let mut b = FunctionBuilder::new("main");
        let fp = b.func_addr(sq);
        let r = b.call_indirect(fp, vec![Operand::Imm(9)]);
        b.print(r);
        b.ret(None);
        let id = m.add_func(b.build());
        m.main = Some(id);
        let r = run_module(&m).unwrap();
        assert_eq!(r.output, vec![81]);
    }

    #[test]
    fn divide_by_zero_traps() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main");
        let r = b.bin(BinOp::Div, 1, 0);
        b.print(r);
        b.ret(None);
        let id = m.add_func(b.build());
        m.main = Some(id);
        assert_eq!(run_module(&m).unwrap_err(), Trap::DivideByZero);
    }

    #[test]
    fn oob_store_traps() {
        let mut m = Module::new();
        let g = m.add_global(GlobalData::array("a", 2));
        let mut b = FunctionBuilder::new("main");
        let i = b.copy(5);
        b.store(
            1,
            Address::Global {
                global: g,
                index: i.into(),
            },
        );
        b.ret(None);
        let id = m.add_func(b.build());
        m.main = Some(id);
        match run_module(&m).unwrap_err() {
            Trap::OutOfBounds {
                index: 5, size: 2, ..
            } => {}
            t => panic!("unexpected trap {t}"),
        }
    }

    #[test]
    fn fuel_limits_infinite_loop() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main");
        let l = b.new_block();
        b.br(l);
        b.br(l);
        let id = m.add_func(b.build());
        m.main = Some(id);
        let err = run_module_with(
            &m,
            InterpOptions {
                fuel: 1000,
                max_depth: 10,
            },
        )
        .unwrap_err();
        assert_eq!(err, Trap::OutOfFuel);
    }

    #[test]
    fn stack_overflow_traps() {
        let mut m = Module::new();
        let f = m.declare_func("f");
        {
            let mut b = FunctionBuilder::new("f");
            b.call_void(f, vec![]);
            b.ret(None);
            m.define_func(f, b.build());
        }
        let mut b = FunctionBuilder::new("main");
        b.call_void(f, vec![]);
        b.ret(None);
        let id = m.add_func(b.build());
        m.main = Some(id);
        let err = run_module_with(
            &m,
            InterpOptions {
                fuel: u64::MAX,
                max_depth: 64,
            },
        )
        .unwrap_err();
        assert_eq!(err, Trap::StackOverflow);
    }

    #[test]
    fn missing_return_value_traps() {
        let mut m = Module::new();
        let f = m.declare_func("noret");
        {
            let mut b = FunctionBuilder::new("noret");
            b.ret(None);
            m.define_func(f, b.build());
        }
        let mut b = FunctionBuilder::new("main");
        let r = b.call(f, vec![]);
        b.print(r);
        b.ret(None);
        let id = m.add_func(b.build());
        m.main = Some(id);
        assert!(matches!(
            run_module(&m).unwrap_err(),
            Trap::MissingReturnValue(_)
        ));
    }

    #[test]
    fn resource_limit_traps_are_distinguished() {
        assert!(Trap::OutOfFuel.is_resource_limit());
        assert!(Trap::StackOverflow.is_resource_limit());
        assert!(!Trap::DivideByZero.is_resource_limit());
        assert!(!Trap::NoMain.is_resource_limit());

        let opts = InterpOptions::default().with_fuel(3).with_max_depth(7);
        assert_eq!(opts.fuel, 3);
        assert_eq!(opts.max_depth, 7);
    }
}
