//! The one-shot workloads: `paper-corpus`, `wide-frames` (a fresh
//! compile, then a simulation, per operation) and `edit-rebuild` (cached
//! compiles sharing one on-disk cache, like separate `mini-cc --cache-dir`
//! runs).

use std::collections::HashSet;
use std::ffi::OsString;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ipra_bench::alloc_meter;
use ipra_core::ipra::CompiledModule;
use ipra_driver::Config;
use ipra_obs::json::Json;

use crate::check::{self, Counts, Problems, Reference};
use crate::gen::{self, Program};
use crate::layers::{trace_op, Layers};
use crate::measure::{fnv, Stamp};
use crate::{Measured, Workload};

/// Inputs with their interpreter references.
pub struct Refd {
    pub prog: Program,
    pub reference: Reference,
}

pub fn with_references(programs: Vec<Program>, layers: &mut Layers) -> Result<Vec<Refd>, String> {
    let mut out = Vec::with_capacity(programs.len());
    let mut ms = 0.0;
    for prog in programs {
        let reference =
            check::reference(&prog.source).map_err(|e| format!("{}: {e}", prog.name))?;
        ms += reference.ms;
        layers.interp_insts += reference.insts;
        out.push(Refd { prog, reference });
    }
    layers.interp_ms = ms / out.len().max(1) as f64;
    Ok(out)
}

fn digest(programs: impl Iterator<Item = impl AsRef<str>>) -> u64 {
    let mut all = String::new();
    for s in programs {
        all.push_str(s.as_ref());
        all.push('\0');
    }
    fnv(all.as_bytes())
}

/// `paper-corpus` and `wide-frames`: each operation is a one-shot `-O3`
/// compile of one program followed by a simulation with the preservation
/// check on; passes visit every program once in a seeded order.
pub struct CompileRun {
    programs: Vec<Refd>,
    /// Generator parameters beyond the program list.
    generator: Vec<(&'static str, Json)>,
    seed: u64,
    setup_layers: Layers,
}

impl CompileRun {
    pub fn paper_corpus(seed: u64) -> Result<CompileRun, String> {
        Self::new(gen::corpus(), Vec::new(), seed)
    }

    pub fn wide_frames(seed: u64) -> Result<CompileRun, String> {
        let generator = vec![
            ("calls_per_value", Json::Float(0.75)),
            ("main_iterations", Json::Int(gen::WIDE_ITERS as i64)),
        ];
        Self::new(gen::wide_ladder(seed), generator, seed)
    }

    fn new(
        programs: Vec<Program>,
        generator: Vec<(&'static str, Json)>,
        seed: u64,
    ) -> Result<CompileRun, String> {
        let mut setup_layers = Layers::default();
        let programs = with_references(programs, &mut setup_layers)?;
        Ok(CompileRun {
            programs,
            generator,
            seed,
            setup_layers,
        })
    }
}

impl Workload for CompileRun {
    fn inputs_digest(&self) -> u64 {
        digest(self.programs.iter().map(|r| &r.prog.source))
    }

    fn params(&self) -> Vec<(&'static str, Json)> {
        let names = self.programs.iter().map(|r| Json::Str(r.prog.name.clone()));
        let mut p = vec![("programs", Json::Arr(names.collect()))];
        p.extend(self.generator.iter().cloned());
        p
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Measured {
        let config = check::config();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut m = Measured::default();
        let mut layers = std::mem::take(&mut self.setup_layers);
        let mut pass = 0u64;
        loop {
            let mut order: Vec<usize> = (0..self.programs.len()).collect();
            gen::shuffle(&mut order, &mut gen::rng(self.seed, 1000 + pass));
            let mut counts = Counts::default();
            for &i in &order {
                let r = &self.programs[i];
                let name = &r.prog.name;
                let mut p = Problems::default();
                let t = Stamp::now();
                // `(module, verifier violations when the traced path
                // counted them)`
                let compiled = if trace {
                    trace_op(&r.prog.source, &config, &mut layers, &mut || {})
                        .map(|op| (op.compiled, Some(op.violations)))
                } else {
                    let (c, heap) =
                        alloc_meter::measure(|| check::compile_source(&r.prog.source, &config));
                    m.note_compile_heap(heap.peak_bytes);
                    c.map(|c| (c, None))
                };
                let (compile_cpu, compile_wall) = (t.cpu_ms(), t.wall_ms());
                match compiled {
                    Ok((c, violations)) => {
                        let expected = &r.reference.output;
                        if let Some(run) =
                            check::run_and_check(&c, &config, expected, &mut counts, &mut p, name)
                        {
                            if trace {
                                layers.add_run(&run);
                            } else {
                                let wall = compile_wall + run.ms;
                                m.note_op(i, compile_cpu, compile_cpu + run.cpu_ms, wall);
                                m.busy_s += wall / 1e3;
                            }
                        }
                        let v = violations.unwrap_or_else(|| check::violations(&c, &config));
                        p.require(v == 0, || format!("{name}: {v} verifier violations"));
                    }
                    Err(e) => p.require(false, || format!("{name}: {e}")),
                }
                m.ledger.record(p.into_option());
            }
            m.check_counts(counts);
            pass += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
        m.layers = trace.then_some(layers);
        m
    }
}

/// A directory under the benchmark's working area, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench-work").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn names(&self) -> HashSet<OsString> {
        std::fs::read_dir(&self.0)
            .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.file_name())).collect())
            .unwrap_or_default()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the shared parent too once no other run uses it.
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// `edit-rebuild`: the corpus primed into an on-disk cache in set-up,
/// then passes of warm recompiles of the originals interleaved with
/// single-function edits, each compile on a fresh pipeline. A pass
/// compiles every original twice and one edit of each, the 2 warm : 1
/// cold split of `service_bench`. After every edit the entries it added
/// are deleted, so every pass sees the same primed cache and every edit
/// stays a fresh edit.
pub struct EditRebuild {
    originals: Vec<Refd>,
    edits: Vec<(usize, Program)>,
    /// Cold (no-cache) assembly digests: originals, then edits.
    cold: Vec<u64>,
    cache: WorkDir,
    primed: HashSet<OsString>,
    seed: u64,
    setup_layers: Layers,
}

impl EditRebuild {
    pub fn new(seed: u64) -> Result<EditRebuild, String> {
        let mut setup_layers = Layers::default();
        let originals = with_references(gen::corpus(), &mut setup_layers)?;
        let corpus: Vec<Program> = originals.iter().map(|r| r.prog.clone()).collect();
        let edits = gen::edits(&corpus, gen::EDITS_PER_PROGRAM, seed, 200);
        let config = check::config();
        let mut cold = Vec::new();
        for p in corpus.iter().chain(edits.iter().map(|(_, e)| e)) {
            let c = check::compile_source(&p.source, &config)
                .map_err(|e| format!("{}: {e}", p.name))?;
            cold.push(fnv(check::asm(&c, &config).as_bytes()));
        }
        let cache = WorkDir::new("cache")?;
        let cached = cache_config(&cache);
        for p in &corpus {
            check::compile_source(&p.source, &cached).map_err(|e| format!("{}: {e}", p.name))?;
        }
        let primed = cache.names();
        Ok(EditRebuild {
            originals,
            edits,
            cold,
            cache,
            primed,
            seed,
            setup_layers,
        })
    }

    /// Deletes cache entries written since priming.
    fn reset(cache: &WorkDir, primed: &HashSet<OsString>) {
        for name in cache.names() {
            if !primed.contains(&name) {
                let _ = std::fs::remove_file(cache.0.join(name));
            }
        }
    }
}

fn cache_config(cache: &WorkDir) -> Config {
    let mut c = check::config();
    c.opts.cache_dir = Some(cache.0.clone());
    c
}

impl Workload for EditRebuild {
    fn inputs_digest(&self) -> u64 {
        digest(
            self.originals
                .iter()
                .map(|r| &r.prog.source)
                .chain(self.edits.iter().map(|(_, e)| &e.source)),
        )
    }

    fn params(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("programs", Json::Int(self.originals.len() as i64)),
            (
                "edits_per_program",
                Json::Int(gen::EDITS_PER_PROGRAM as i64),
            ),
            ("primed_cache_entries", Json::Int(self.primed.len() as i64)),
            (
                "pass",
                Json::Str(
                    "each program twice warm, plus its edit variant (pass mod edits_per_program)"
                        .into(),
                ),
            ),
        ]
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Measured {
        let config = check::config();
        let cached = cache_config(&self.cache);
        let n = self.originals.len();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut m = Measured::default();
        let mut layers = std::mem::take(&mut self.setup_layers);
        // Pass 0's compiled modules, simulated after the window.
        let mut kept: Vec<(usize, String, CompiledModule)> = Vec::new();
        let mut pass = 0u64;
        loop {
            let variant = pass as usize % gen::EDITS_PER_PROGRAM;
            let mut ops: Vec<usize> = (0..3 * n).collect();
            gen::shuffle(&mut ops, &mut gen::rng(self.seed, 2000 + pass));
            for &op in &ops {
                // op < 2n: warm recompile of original `op % n`; otherwise
                // the current edit variant of original `op - 2n`.
                let (prog, cold_idx, orig) = if op < 2 * n {
                    (&self.originals[op % n].prog, op % n, op % n)
                } else {
                    let e = variant * n + (op - 2 * n);
                    (&self.edits[e].1, n + e, self.edits[e].0)
                };
                let (cache, primed) = (&self.cache, &self.primed);
                let mut p = Problems::default();
                let result = if trace {
                    trace_op(&prog.source, &cached, &mut layers, &mut || {
                        Self::reset(cache, primed)
                    })
                    .map(|op| (op.compiled, op.asm, Some(op.violations)))
                } else {
                    let t = Stamp::now();
                    let (compiled, heap) =
                        alloc_meter::measure(|| check::compile_source(&prog.source, &cached));
                    let compile_cpu = t.cpu_ms();
                    m.note_compile_heap(heap.peak_bytes);
                    let r = compiled.map(|c| {
                        let asm = check::asm(&c, &config);
                        (c, asm, None)
                    });
                    let (request_cpu, request_wall) = (t.cpu_ms(), t.wall_ms());
                    if r.is_ok() {
                        m.note_op(cold_idx, compile_cpu, request_cpu, request_wall);
                        m.busy_s += request_wall / 1e3;
                    }
                    Self::reset(cache, primed);
                    r
                };
                match result {
                    Ok((c, asm, violations)) => {
                        p.require(fnv(asm.as_bytes()) == self.cold[cold_idx], || {
                            format!("{}: cached compile differs from cold compile", prog.name)
                        });
                        let v = violations.unwrap_or_else(|| check::violations(&c, &config));
                        p.require(v == 0, || format!("{}: {v} verifier violations", prog.name));
                        // Each original's first replay and each edit.
                        if pass == 0 && !(n..2 * n).contains(&op) {
                            kept.push((orig, prog.name.clone(), c));
                        }
                    }
                    Err(e) => p.require(false, || format!("{}: {e}", prog.name)),
                }
                m.ledger.record(p.into_option());
            }
            pass += 1;
            if Instant::now() >= deadline {
                break;
            }
        }

        // Run pass 0's outputs against the interpreter.
        kept.sort_by(|a, b| a.1.cmp(&b.1));
        let mut counts = Counts::default();
        for (orig, name, c) in &kept {
            let mut p = Problems::default();
            let expected = &self.originals[*orig].reference.output;
            check::run_and_check(c, &config, expected, &mut counts, &mut p, name);
            m.ledger.record(p.into_option());
        }
        m.check_counts(counts);
        m.layers = trace.then_some(layers);
        m
    }
}
