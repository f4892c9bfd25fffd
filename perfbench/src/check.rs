//! Reference outputs, simulation and the correctness ledger shared by
//! every workload.

use std::time::Instant;

use ipra_core::ipra::{compile_module, CompiledModule};
use ipra_driver::{run_compiled, Config};

use crate::measure::{ms_since, Stamp};

/// Attempted operations and the failures among them.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub messages: Vec<String>,
}

impl Ledger {
    /// Counts one operation; `problem` is `Some` when it failed. An
    /// operation fails at most once however many checks it breaks.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(msg) = problem {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(msg);
            }
        }
    }

    /// Adds another ledger's operations (a client thread's).
    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

/// Collects the problems of one operation's checks.
#[derive(Default)]
pub struct Problems(Vec<String>);

impl Problems {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    pub fn into_option(self) -> Option<String> {
        (!self.0.is_empty()).then(|| self.0.join("; "))
    }
}

/// The interpreter's output for `source`, computed independently of the
/// compiler under test.
pub struct Reference {
    pub output: Vec<i64>,
    pub insts: u64,
    pub ms: f64,
}

pub fn reference(source: &str) -> Result<Reference, String> {
    let module = ipra_frontend::compile(source).map_err(|e| format!("frontend: {e}"))?;
    let t = Instant::now();
    let r = ipra_ir::interp::run_module(&module).map_err(|e| format!("interp: {e}"))?;
    Ok(Reference {
        output: r.output,
        insts: r.insts_executed,
        ms: ms_since(t),
    })
}

/// The configuration every workload compiles under: `-O3` (Table 1
/// column C) with the program's defaults, so waves run at the host's
/// parallelism.
pub fn config() -> Config {
    Config::c()
}

/// Source text to machine code, one-shot.
pub fn compile_source(source: &str, config: &Config) -> Result<CompiledModule, String> {
    let module = ipra_frontend::compile(source).map_err(|e| format!("frontend: {e}"))?;
    Ok(compile_module(&module, &config.target, &config.opts))
}

/// The module's assembly, rendered exactly as the compile service
/// renders its `asm` field.
pub fn asm(compiled: &CompiledModule, config: &Config) -> String {
    let mut s = String::new();
    for (_, f) in compiled.mmodule.funcs.iter() {
        s.push_str(
            &f.display_in(&config.target.regs, &compiled.mmodule)
                .to_string(),
        );
        s.push('\n');
    }
    s
}

/// Machine instructions in the module, terminators included.
pub fn code_insts(compiled: &CompiledModule) -> u64 {
    compiled
        .mmodule
        .funcs
        .iter()
        .flat_map(|(_, f)| f.blocks.iter())
        .map(|(_, b)| b.insts.len() as u64 + 1)
        .sum()
}

/// Register-contract violations the static verifier finds.
pub fn violations(compiled: &CompiledModule, config: &Config) -> usize {
    ipra_verify::verify_module(&compiled.mmodule, &config.target.regs, &compiled.summaries).len()
}

/// Deterministic counts that must repeat exactly for a given seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub sim_cycles: u64,
    pub penalty_cycles: u64,
    pub code_insts: u64,
}

/// One simulation with the preservation checker on.
pub struct Run {
    /// Wall milliseconds.
    pub ms: f64,
    pub cpu_ms: f64,
    pub output: Vec<i64>,
    pub cycles: u64,
    pub penalty: u64,
    pub insts: u64,
    pub calls: u64,
}

pub fn simulate(compiled: &CompiledModule, config: &Config) -> Result<Run, String> {
    let t = Stamp::now();
    let m = run_compiled(compiled, config).map_err(|e| format!("sim trap: {e}"))?;
    Ok(Run {
        ms: t.wall_ms(),
        cpu_ms: t.cpu_ms(),
        penalty: m.stats.penalty_cycles(&config.target.cost),
        cycles: m.stats.cycles,
        insts: m.stats.insts,
        calls: m.stats.calls,
        output: m.output,
    })
}

/// Simulates `compiled`, compares its output with `expected`, and adds
/// its counts to `counts`. Returns the run when it completed.
pub fn run_and_check(
    compiled: &CompiledModule,
    config: &Config,
    expected: &[i64],
    counts: &mut Counts,
    problems: &mut Problems,
    name: &str,
) -> Option<Run> {
    counts.code_insts += code_insts(compiled);
    match simulate(compiled, config) {
        Ok(r) => {
            counts.sim_cycles += r.cycles;
            counts.penalty_cycles += r.penalty;
            problems.require(r.output == expected, || {
                format!("{name}: output differs from interpreter")
            });
            Some(r)
        }
        Err(e) => {
            problems.require(false, || format!("{name}: {e}"));
            None
        }
    }
}
