//! Calling-convention search: the Table 2 sensitivity study generalized
//! into a sweep (after Krause 2022, "Efficient Calling Conventions for
//! Irregular Architectures").
//!
//! A *shape* fixes the hardware — a pool of allocatable registers of a
//! given size with an argument-register budget — and each *point* of the
//! search picks a software convention for it: how many pool registers are
//! caller-saved (the rest callee-saved) and how many of those carry
//! arguments. Every point compiles the whole corpus under `-O3`, must
//! pass the static register-contract verifier (`ipra-verify`) and the
//! simulator's preservation checker, and must print exactly what the IR
//! reference interpreter prints; the per-point penalty surface
//! (save/restore and spill traffic, Eqs 3.5/3.6 cycles) is accumulated
//! through the `ipra-obs` metrics registry and rendered as a
//! deterministic JSON/markdown report, byte-identical across cache
//! temperature.

use std::path::PathBuf;

use ipra_core::config::AllocOptions;
use ipra_ir::interp::{self, InterpOptions};
use ipra_ir::Module;
use ipra_machine::{MemClass, Target};
use ipra_obs::json::Json;
use ipra_obs::metrics::Metrics;

use crate::{compile_only, run_compiled, Config};

/// One register-file shape the search sweeps conventions over.
#[derive(Clone, Debug)]
pub struct ShapeSpec {
    /// Shape label used in reports and metric labels.
    pub name: String,
    /// Allocatable pool size.
    pub pool: usize,
    /// Largest argument-register count any point may use.
    pub max_args: usize,
}

/// The default shape set: the paper's 24-register MIPS-like pool and the
/// irregular 8-register embedded pool of the `embedded8` named target.
pub fn default_shapes() -> Vec<ShapeSpec> {
    vec![
        ShapeSpec {
            name: "mips24".into(),
            pool: 24,
            max_args: 4,
        },
        ShapeSpec {
            name: "embedded8".into(),
            pool: 8,
            max_args: 2,
        },
    ]
}

/// The `(caller, args)` grid for a shape, in deterministic sweep order.
///
/// The dense grid steps the caller-saved count across the whole pool and
/// crosses it with every distinct argument budget up to the shape's
/// maximum (arguments are caller-saved, so `args <= caller` always); the
/// sparse grid keeps three partitions and two argument budgets for smoke
/// tests and goldens.
pub fn grid_points(shape: &ShapeSpec, dense: bool) -> Vec<(usize, usize)> {
    let callers: Vec<usize> = if dense {
        let step = (shape.pool / 8).max(1);
        let mut v: Vec<usize> = (0..=shape.pool).step_by(step).collect();
        if v.last() != Some(&shape.pool) {
            v.push(shape.pool);
        }
        v
    } else {
        let mut v = vec![shape.pool / 3, (2 * shape.pool) / 3, shape.pool];
        v.dedup();
        v
    };
    let arg_budgets: Vec<usize> = if dense {
        [0usize, 1, 2, 4]
            .into_iter()
            .filter(|&a| a <= shape.max_args)
            .collect()
    } else {
        let mut v = vec![(shape.max_args / 2).max(1), shape.max_args];
        v.dedup();
        v
    };
    let mut points = Vec::new();
    for &caller in &callers {
        let mut prev = None;
        for &args in &arg_budgets {
            let args = args.min(caller);
            if prev == Some(args) {
                continue;
            }
            prev = Some(args);
            points.push((caller, args));
        }
    }
    points
}

/// One corpus program with its reference-interpreter oracle output.
#[derive(Clone, Debug)]
pub struct CorpusProgram {
    /// Program label used in reports.
    pub name: String,
    /// The compiled IR.
    pub module: Module,
    /// What the interpreter prints (the ground truth every point must
    /// reproduce).
    pub oracle: Vec<i64>,
}

/// Wraps a named module with its interpreter oracle.
///
/// # Errors
///
/// Returns a message when the reference interpreter traps on the program.
pub fn corpus_program(name: &str, module: Module) -> Result<CorpusProgram, String> {
    let oracle = interp::run_module_with(&module, InterpOptions::default())
        .map_err(|t| format!("{name}: interpreter oracle trapped: {t}"))?;
    Ok(CorpusProgram {
        name: name.to_string(),
        module,
        oracle: oracle.output,
    })
}

/// The bundled workload suite as a search corpus: all 13 programs, or the
/// three smallest under `small`.
///
/// # Errors
///
/// Returns a message when a workload fails to compile or its oracle run
/// traps (both would be repo bugs).
pub fn workload_corpus(small: bool) -> Result<Vec<CorpusProgram>, String> {
    let mut v = Vec::new();
    for w in ipra_workloads::all()
        .into_iter()
        .take(if small { 3 } else { usize::MAX })
    {
        let module = ipra_workloads::compile_workload(w).map_err(|e| format!("{}: {e}", w.name))?;
        v.push(corpus_program(w.name, module)?);
    }
    Ok(v)
}

/// Search knobs. `cache_dir` flows into the allocator options of every
/// point compile and must never change the report bytes.
#[derive(Clone, Debug, Default)]
pub struct SearchOptions {
    /// Incremental-cache directory shared by every point compile.
    pub cache_dir: Option<PathBuf>,
    /// Dense grid (the full Table-2-style surface) vs the sparse smoke
    /// grid.
    pub dense: bool,
}

/// The measured surface at one `(caller, args)` point.
#[derive(Clone, Debug)]
pub struct PointReport {
    /// Caller-saved registers (argument registers included).
    pub caller: usize,
    /// Callee-saved registers (`pool - caller`).
    pub callee: usize,
    /// Argument registers.
    pub args: usize,
    /// Whether every corpus compile passed the static verifier.
    pub verified: bool,
    /// Whether every corpus run matched the interpreter oracle.
    pub interp_match: bool,
    /// Total simulated cycles over the corpus.
    pub cycles: u64,
    /// Total register-usage penalty cycles (Eqs 3.5/3.6).
    pub penalty_cycles: u64,
    /// Save/restore loads + stores.
    pub sr_mem: u64,
    /// Spill loads + stores.
    pub spill_mem: u64,
    /// Scalar loads + stores.
    pub scalar_mem: u64,
    /// Dynamic calls executed.
    pub calls: u64,
}

/// The surface of one shape.
#[derive(Clone, Debug)]
pub struct ShapeReport {
    /// The shape swept.
    pub shape: ShapeSpec,
    /// One report per grid point, in sweep order.
    pub points: Vec<PointReport>,
    /// Index into `points` of the lowest-penalty fully-passing point.
    /// Ties (the penalty surface is flat across argument counts, which
    /// only move traffic between the argument area and registers) break
    /// by total cycles, then sweep order.
    pub best: usize,
}

/// The whole search result.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// Corpus program names, in sweep order.
    pub corpus: Vec<String>,
    /// One report per shape.
    pub shapes: Vec<ShapeReport>,
    /// Human-readable descriptions of every point/program failure.
    pub failures: Vec<String>,
    /// The metrics registry every surface number was accumulated through.
    pub metrics: Metrics,
}

fn point_label(shape: &str, caller: usize, args: usize) -> String {
    format!("{shape}/c{caller}a{args}")
}

/// Runs the sweep.
///
/// Every `(shape, point, program)` triple compiles under `-O3` for the
/// point's convention, is statically verified, simulated with the
/// preservation checker on, and compared against the program's oracle
/// output; failures are recorded (never panicked) so the report always
/// renders the full surface.
pub fn run_search(
    corpus: &[CorpusProgram],
    shapes: &[ShapeSpec],
    opts: &SearchOptions,
) -> SearchReport {
    let mut metrics = Metrics::default();
    let mut failures = Vec::new();
    let mut shape_reports = Vec::new();

    for shape in shapes {
        let mut points = Vec::new();
        for (caller, args) in grid_points(shape, opts.dense) {
            let label = point_label(&shape.name, caller, args);
            let target = Target::convention(shape.pool, caller, args);
            let mut alloc = AllocOptions::o3();
            alloc.cache_dir = opts.cache_dir.clone();
            let config = Config {
                name: label.clone(),
                target,
                opts: alloc,
            };

            let mut verified = true;
            let mut interp_match = true;
            let mut cycles = 0u64;
            let mut penalty = 0u64;
            let mut sr_mem = 0u64;
            let mut spill_mem = 0u64;
            let mut scalar = 0u64;
            let mut calls = 0u64;
            for prog in corpus {
                let compiled = compile_only(&prog.module, &config);
                let violations = ipra_verify::verify_module(
                    &compiled.mmodule,
                    &config.target.regs,
                    &compiled.summaries,
                );
                if let Some(v) = violations.first() {
                    verified = false;
                    failures.push(format!("{label}/{}: static verify: {v}", prog.name));
                    continue;
                }
                let m = match run_compiled(&compiled, &config) {
                    Ok(m) => m,
                    Err(t) => {
                        interp_match = false;
                        failures.push(format!("{label}/{}: simulator trapped: {t}", prog.name));
                        continue;
                    }
                };
                if m.output != prog.oracle {
                    interp_match = false;
                    failures.push(format!(
                        "{label}/{}: output differs from the interpreter oracle",
                        prog.name
                    ));
                    continue;
                }
                cycles += m.stats.cycles;
                penalty += m.stats.penalty_cycles(&config.target.cost);
                sr_mem += m.stats.save_restore_mem();
                spill_mem += m.stats.loads(MemClass::Spill) + m.stats.stores(MemClass::Spill);
                scalar += m.stats.scalar_mem();
                calls += m.stats.calls;
            }

            // The penalty surface flows through the PR-6 metrics registry:
            // one labeled counter per quantity per point, so `trace-tool`
            // style consumers and the report reader see the same numbers.
            let labels: &[(&str, &str)] = &[("point", &label)];
            metrics.add_counter("convsearch.cycles", labels, cycles);
            metrics.add_counter("convsearch.penalty_cycles", labels, penalty);
            metrics.add_counter("convsearch.sr_mem", labels, sr_mem);
            metrics.add_counter("convsearch.spill_mem", labels, spill_mem);
            metrics.add_counter("convsearch.scalar_mem", labels, scalar);
            metrics.add_counter("convsearch.calls", labels, calls);
            metrics.add_counter(
                "convsearch.failed_points",
                labels,
                u64::from(!(verified && interp_match)),
            );

            points.push(PointReport {
                caller,
                callee: shape.pool - caller,
                args,
                verified,
                interp_match,
                cycles,
                penalty_cycles: penalty,
                sr_mem,
                spill_mem,
                scalar_mem: scalar,
                calls,
            });
        }

        let best = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.verified && p.interp_match)
            .min_by_key(|(_, p)| (p.penalty_cycles, p.cycles))
            .map(|(i, _)| i)
            .unwrap_or(0);
        shape_reports.push(ShapeReport {
            shape: shape.clone(),
            points,
            best,
        });
    }

    SearchReport {
        corpus: corpus.iter().map(|p| p.name.clone()).collect(),
        shapes: shape_reports,
        failures,
        metrics,
    }
}

impl SearchReport {
    /// Number of points across all shapes.
    pub fn num_points(&self) -> usize {
        self.shapes.iter().map(|s| s.points.len()).sum()
    }

    /// Points whose every program verified and matched the oracle.
    pub fn num_passing_points(&self) -> usize {
        self.shapes
            .iter()
            .flat_map(|s| &s.points)
            .filter(|p| p.verified && p.interp_match)
            .count()
    }

    /// Smallest per-shape point count (the Table-2 coverage floor).
    pub fn min_points_per_shape(&self) -> usize {
        self.shapes
            .iter()
            .map(|s| s.points.len())
            .min()
            .unwrap_or(0)
    }

    /// The deterministic JSON document (`BENCH_convsearch.json`).
    pub fn to_json(&self) -> Json {
        let shapes = self
            .shapes
            .iter()
            .map(|s| {
                let points = s
                    .points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("caller", Json::Int(p.caller as i64)),
                            ("callee", Json::Int(p.callee as i64)),
                            ("args", Json::Int(p.args as i64)),
                            ("verified", Json::Bool(p.verified)),
                            ("interp_match", Json::Bool(p.interp_match)),
                            ("cycles", Json::Int(p.cycles as i64)),
                            ("penalty_cycles", Json::Int(p.penalty_cycles as i64)),
                            ("sr_mem", Json::Int(p.sr_mem as i64)),
                            ("spill_mem", Json::Int(p.spill_mem as i64)),
                            ("scalar_mem", Json::Int(p.scalar_mem as i64)),
                            ("calls", Json::Int(p.calls as i64)),
                        ])
                    })
                    .collect();
                let b = &s.points[s.best];
                Json::obj(vec![
                    ("shape", Json::Str(s.shape.name.clone())),
                    ("pool", Json::Int(s.shape.pool as i64)),
                    ("max_args", Json::Int(s.shape.max_args as i64)),
                    (
                        "best",
                        Json::obj(vec![
                            ("caller", Json::Int(b.caller as i64)),
                            ("callee", Json::Int(b.callee as i64)),
                            ("args", Json::Int(b.args as i64)),
                            ("penalty_cycles", Json::Int(b.penalty_cycles as i64)),
                        ]),
                    ),
                    ("points", Json::Arr(points)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("bench", Json::Str("convsearch".into())),
            (
                "corpus",
                Json::Arr(self.corpus.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "total",
                Json::obj(vec![
                    ("shapes", Json::Int(self.shapes.len() as i64)),
                    ("points", Json::Int(self.num_points() as i64)),
                    (
                        "passing_points",
                        Json::Int(self.num_passing_points() as i64),
                    ),
                    (
                        "min_points_per_shape",
                        Json::Int(self.min_points_per_shape() as i64),
                    ),
                    ("failures", Json::Int(self.failures.len() as i64)),
                ]),
            ),
            ("shapes", Json::Arr(shapes)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }

    /// The Table-2-style markdown rendering of the penalty surface.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# Convention-search penalty surface");
        let _ = writeln!(out);
        let _ = writeln!(out, "Corpus: {}.", self.corpus.join(", "));
        for s in &self.shapes {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "## Shape `{}` — pool {}, up to {} argument registers",
                s.shape.name, s.shape.pool, s.shape.max_args
            );
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "| caller | callee | args | penalty cycles | cycles | sr l/s | spill l/s | scalar l/s | ok |"
            );
            let _ = writeln!(
                out,
                "|-------:|-------:|-----:|---------------:|-------:|-------:|----------:|-----------:|:---|"
            );
            for (i, p) in s.points.iter().enumerate() {
                let ok = if !(p.verified && p.interp_match) {
                    "FAIL"
                } else if i == s.best {
                    "best"
                } else {
                    "yes"
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                    p.caller,
                    p.callee,
                    p.args,
                    p.penalty_cycles,
                    p.cycles,
                    p.sr_mem,
                    p.spill_mem,
                    p.scalar_mem,
                    ok
                );
            }
        }
        if !self.failures.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "## Failures");
            let _ = writeln!(out);
            for f in &self.failures {
                let _ = writeln!(out, "- {f}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_grids_cover_at_least_twelve_points_per_shape() {
        for shape in default_shapes() {
            let pts = grid_points(&shape, true);
            assert!(pts.len() >= 12, "{}: only {} points", shape.name, pts.len());
            // Every point is a legal convention, and no duplicates.
            let mut seen = std::collections::HashSet::new();
            for &(caller, args) in &pts {
                assert!(caller <= shape.pool);
                assert!(args <= caller && args <= shape.max_args);
                assert!(seen.insert((caller, args)), "duplicate point");
            }
            // The partition axis reaches both extremes.
            assert!(pts.iter().any(|&(c, _)| c == 0));
            assert!(pts.iter().any(|&(c, _)| c == shape.pool));
        }
    }

    #[test]
    fn sparse_sweep_passes_and_renders_deterministically() {
        let corpus = vec![corpus_program(
            "demo",
            ipra_frontend::compile(
                "fn f(a: int, b: int, c: int) -> int { return a * b - c; }\
                 fn main() { var i: int = 0; var s: int = 0;\
                 while i < 9 { s = s + f(i, s, 3); i = i + 1; } print(s); }",
            )
            .unwrap(),
        )
        .unwrap()];
        let shapes = vec![ShapeSpec {
            name: "tiny6".into(),
            pool: 6,
            max_args: 2,
        }];
        let opts = SearchOptions::default();
        let r1 = run_search(&corpus, &shapes, &opts);
        assert!(r1.failures.is_empty(), "{:?}", r1.failures);
        assert_eq!(r1.num_points(), r1.num_passing_points());
        let r2 = run_search(&corpus, &shapes, &opts);
        assert_eq!(
            r1.to_json().render_pretty(),
            r2.to_json().render_pretty(),
            "report differs between identical runs"
        );
        assert_eq!(r1.to_markdown(), r2.to_markdown());
        let md = r1.to_markdown();
        assert!(md.contains("Shape `tiny6`"), "{md}");
    }
}
