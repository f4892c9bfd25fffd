//! The traced run: the compile path taken apart into the public entry
//! point of each layer, timed from here, plus the allocator spans that
//! `ipra-obs` already records inside `compile_module`.

use std::time::Instant;

use ipra_callgraph::{CallGraph, Openness, SccInfo};
use ipra_core::ipra::{compile_module, CompiledModule};
use ipra_core::{normalize_entries, promote_globals};
use ipra_driver::Config;
use ipra_obs::json::Json;

use crate::check::{self, Run};
use crate::measure::ms_since;

/// Layer times (ms) and counts summed over the traced operations.
#[derive(Debug, Default)]
pub struct Layers {
    pub ops: u64,
    pub parse_ms: f64,
    pub lower_ms: f64,
    pub normalize_ms: f64,
    pub promote_ms: f64,
    pub cg_build_ms: f64,
    pub scc_ms: f64,
    pub openness_ms: f64,
    pub ranges_ms: f64,
    pub priority_ms: f64,
    pub color_ms: f64,
    pub shrink_wrap_ms: f64,
    pub alloc_lower_ms: f64,
    pub cache_hit_ms: f64,
    /// Wall time of the traced `compile_module` calls.
    pub compile_module_ms: f64,
    /// Parse + lower + traced `compile_module`: the traced compile path.
    pub traced_compile_ms: f64,
    /// The same compiles with tracing off.
    pub untraced_compile_ms: f64,
    pub asm_ms: f64,
    pub sim_ms: f64,
    pub ir_insts: u64,
    pub promoted: u64,
    pub open_funcs: u64,
    pub candidate_vregs: u64,
    pub memory_vregs: u64,
    pub split_vregs: u64,
    pub shrink_iterations: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_cutoffs: u64,
    pub analysis_hits: u64,
    pub analysis_misses: u64,
    pub sim_insts: u64,
    pub sim_calls: u64,
    pub violations: u64,
    /// Daemon traffic (zero on the one-shot workloads).
    pub requests: u64,
    pub roundtrip_ms: f64,
    /// `Service::dispatch` time of the compile requests, from the
    /// service's own `service.request_micros` histogram.
    pub dispatch_ms: f64,
    pub dispatches: u64,
    pub ok: u64,
    pub warm: u64,
    pub busy: u64,
    pub req_analysis_hits: u64,
    pub req_analysis_misses: u64,
    pub memo_prepared: u64,
    pub memo_entries: u64,
    /// Interpreter references computed in set-up.
    pub interp_ms: f64,
    pub interp_insts: u64,
}

/// What one traced operation produced, for the caller's checks.
pub struct TracedOp {
    pub compiled: CompiledModule,
    pub asm: String,
    pub violations: usize,
}

fn time<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    *acc += ms_since(t);
    v
}

/// One compile through every layer in pipeline order, then asm and the
/// static verifier. `config` may carry a cache directory; `reset` runs
/// after each of the two compiles so the untraced and traced compiles
/// find the same cache state. Callers that simulate add the run with
/// [`Layers::add_run`].
pub fn trace_op(
    source: &str,
    config: &Config,
    l: &mut Layers,
    reset: &mut dyn FnMut(),
) -> Result<TracedOp, String> {
    let (target, opts) = (&config.target, &config.opts);
    time(&mut l.untraced_compile_ms, || {
        check::compile_source(source, config)
    })?;
    reset();

    let t = Instant::now();
    let prog = time(&mut l.parse_ms, || ipra_frontend::parser::parse(source))
        .map_err(|e| format!("parse: {e}"))?;
    let module = time(&mut l.lower_ms, || ipra_frontend::lower::lower(&prog))
        .map_err(|e| format!("lower: {e}"))?;
    let front_ms = ms_since(t);
    l.ir_insts += module.num_insts() as u64;

    // The module-level passes `compile_module` runs first, called on a
    // copy to time them one by one.
    let mut prepared = module.clone();
    time(&mut l.normalize_ms, || normalize_entries(&mut prepared));
    if opts.promote_globals {
        l.promoted += time(&mut l.promote_ms, || promote_globals(&mut prepared)).promoted as u64;
    }
    let cg = time(&mut l.cg_build_ms, || CallGraph::build(&prepared));
    let scc = time(&mut l.scc_ms, || SccInfo::compute(&cg));
    let open = time(&mut l.openness_ms, || {
        Openness::compute(&prepared, &cg, &scc)
    });
    l.open_funcs += open.num_open() as u64;

    ipra_obs::enable();
    let t = Instant::now();
    let compiled = compile_module(&module, target, opts);
    let compile_ms = ms_since(t);
    let raw = ipra_obs::disable();
    reset();
    l.compile_module_ms += compile_ms;
    l.traced_compile_ms += front_ms + compile_ms;
    for s in &raw.spans {
        let ms = s.dur_ns as f64 / 1e6;
        match s.name {
            "ranges" => l.ranges_ms += ms,
            "priority" => l.priority_ms += ms,
            "color" => l.color_ms += ms,
            "shrink_wrap" => l.shrink_wrap_ms += ms,
            "lower" => l.alloc_lower_ms += ms,
            "cache.hit" => l.cache_hit_ms += ms,
            _ => {}
        }
    }
    for r in &compiled.reports {
        l.candidate_vregs += r.candidate_vregs as u64;
        l.memory_vregs += r.memory_vregs as u64;
        l.split_vregs += r.split_vregs as u64;
        l.shrink_iterations += u64::from(r.shrink_iterations);
    }
    l.cache_hits += compiled.cache.hits;
    l.cache_misses += compiled.cache.misses;
    l.cache_cutoffs += compiled.cache.cutoffs;
    l.analysis_hits += compiled.analysis.hits;
    l.analysis_misses += compiled.analysis.misses;

    let asm = time(&mut l.asm_ms, || check::asm(&compiled, config));
    let violations = check::violations(&compiled, config);
    l.violations += violations as u64;
    l.ops += 1;
    Ok(TracedOp {
        compiled,
        asm,
        violations,
    })
}

fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Layers {
    /// Adds one simulation of a traced operation.
    pub fn add_run(&mut self, r: &Run) {
        self.sim_ms += r.ms;
        self.sim_insts += r.insts;
        self.sim_calls += r.calls;
    }

    /// The per-layer metrics: times are means per operation (so they add
    /// up to the mean compile), counts are means per operation unless
    /// the unit says otherwise.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ops = self.ops as f64;
        let per = |v: f64| div(v, ops);
        let cnt = |v: u64| div(v as f64, ops);
        let module_passes =
            self.normalize_ms + self.promote_ms + self.cg_build_ms + self.scc_ms + self.openness_ms;
        let spans = self.ranges_ms
            + self.priority_ms
            + self.color_ms
            + self.shrink_wrap_ms
            + self.alloc_lower_ms
            + self.cache_hit_ms;
        let other = self.compile_module_ms - module_passes - spans;
        let covered = self.parse_ms + self.lower_ms + module_passes + spans;
        let reqs = self.requests as f64;
        vec![
            ("frontend.parse_ms", per(self.parse_ms), "ms"),
            ("frontend.lower_ms", per(self.lower_ms), "ms"),
            ("frontend.ir_insts", cnt(self.ir_insts), "count/op"),
            ("prepare.normalize_ms", per(self.normalize_ms), "ms"),
            ("prepare.promote_ms", per(self.promote_ms), "ms"),
            ("prepare.promoted", cnt(self.promoted), "count/op"),
            ("callgraph.build_ms", per(self.cg_build_ms), "ms"),
            ("callgraph.scc_ms", per(self.scc_ms), "ms"),
            ("callgraph.openness_ms", per(self.openness_ms), "ms"),
            ("callgraph.open_funcs", cnt(self.open_funcs), "count/op"),
            ("alloc.ranges_ms", per(self.ranges_ms), "ms"),
            ("alloc.priority_ms", per(self.priority_ms), "ms"),
            ("alloc.color_ms", per(self.color_ms), "ms"),
            ("alloc.shrink_wrap_ms", per(self.shrink_wrap_ms), "ms"),
            ("alloc.lower_ms", per(self.alloc_lower_ms), "ms"),
            ("alloc.other_ms", per(other), "ms"),
            (
                "alloc.candidate_vregs",
                cnt(self.candidate_vregs),
                "count/op",
            ),
            ("alloc.memory_vregs", cnt(self.memory_vregs), "count/op"),
            ("alloc.split_vregs", cnt(self.split_vregs), "count/op"),
            (
                "alloc.shrink_iterations",
                cnt(self.shrink_iterations),
                "count/op",
            ),
            ("cache.hits", cnt(self.cache_hits), "count/op"),
            ("cache.misses", cnt(self.cache_misses), "count/op"),
            ("cache.cutoffs", cnt(self.cache_cutoffs), "count/op"),
            (
                "cache.hit_ratio",
                div(
                    self.cache_hits as f64,
                    (self.cache_hits + self.cache_misses) as f64,
                ),
                "ratio",
            ),
            ("cache.hit_ms", per(self.cache_hit_ms), "ms"),
            (
                "pipeline.analysis_hits",
                self.analysis_hits_per_op(),
                "count/op",
            ),
            (
                "pipeline.analysis_misses",
                self.analysis_misses_per_op(),
                "count/op",
            ),
            ("pipeline.memo_prepared", self.memo_prepared as f64, "count"),
            ("pipeline.memo_entries", self.memo_entries as f64, "count"),
            ("service.roundtrip_ms", div(self.roundtrip_ms, reqs), "ms"),
            (
                "service.dispatch_ms",
                div(self.dispatch_ms, self.dispatches as f64),
                "ms",
            ),
            (
                "service.frame_ms",
                div(self.roundtrip_ms, reqs) - div(self.dispatch_ms, self.dispatches as f64),
                "ms",
            ),
            (
                "service.warm_hit_ratio",
                div(self.warm as f64, self.ok as f64),
                "ratio",
            ),
            ("service.busy", self.busy as f64, "count"),
            ("machine.asm_ms", per(self.asm_ms), "ms"),
            ("sim.ms", per(self.sim_ms), "ms"),
            (
                "sim.minsts_per_s",
                div(self.sim_insts as f64 / 1e6, self.sim_ms / 1e3),
                "Minst/s",
            ),
            ("sim.insts", cnt(self.sim_insts), "count/op"),
            ("sim.calls", cnt(self.sim_calls), "count/op"),
            ("interp.ms", self.interp_ms, "ms"),
            (
                "interp.minsts_per_s",
                div(self.interp_insts as f64 / 1e6, self.interp_ms / 1e3),
                "Minst/s",
            ),
            ("verify.violations", self.violations as f64, "count"),
            (
                "trace.coverage",
                div(covered, self.traced_compile_ms),
                "ratio",
            ),
            (
                "trace.overhead_ms",
                per(self.traced_compile_ms - self.untraced_compile_ms),
                "ms",
            ),
        ]
    }

    /// Daemon requests report the service's memo; one-shot compiles their
    /// own (always cold) analysis window.
    fn analysis_hits_per_op(&self) -> f64 {
        if self.requests > 0 {
            div(self.req_analysis_hits as f64, self.requests as f64)
        } else {
            div(self.analysis_hits as f64, self.ops as f64)
        }
    }

    fn analysis_misses_per_op(&self) -> f64 {
        if self.requests > 0 {
            div(self.req_analysis_misses as f64, self.requests as f64)
        } else {
            div(self.analysis_misses as f64, self.ops as f64)
        }
    }

    /// Folds one daemon response into the service counters.
    pub fn record_response(&mut self, resp: &Json, roundtrip_ms: f64) {
        self.requests += 1;
        self.roundtrip_ms += roundtrip_ms;
        match resp.get("status").and_then(Json::as_str) {
            Some("ok") => self.ok += 1,
            Some("busy") => self.busy += 1,
            _ => {}
        }
        if resp.get("warm") == Some(&Json::Bool(true)) {
            self.warm += 1;
        }
        let a = resp.get("analysis");
        let field = |k: &str| a.and_then(|a| a.get(k)).and_then(Json::as_i64).unwrap_or(0);
        self.req_analysis_hits += field("hits") as u64;
        self.req_analysis_misses += field("misses") as u64;
    }
}
