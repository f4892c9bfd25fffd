//! Differential-testing oracle over the full configuration cross-product.
//!
//! One seed passes when, for *every* named allocator configuration, the
//! simulated machine code (with the register-preservation checker on)
//! prints exactly what the [`ipra_ir::interp`] reference interpreter
//! prints — and additionally the compile is deterministic across cache
//! temperature (a warm `--cache-dir` compile replays to the same
//! assembly as the cold one that populated it), and across scratch
//! reuse (a second compile through one persistent pipeline — memoized
//! analyses, recycled buffers — matches a fresh compile). A final trace oracle
//! re-compiles under tracing and demands that the `--trace-json` document
//! re-parses, that its span tree is well formed, and that the per-edge
//! penalty ledger reconciles exactly with the aggregate statistics.
//!
//! Seeds whose oracle run exhausts a resource budget (fuel or call depth)
//! are *skipped*, not failed: a generated program too expensive to execute
//! tells us nothing about the compiler.
//!
//! Source-level seeds additionally pass through the daemon-vs-oneshot
//! oracle: the seed is compiled by a live in-process `mini-ccd` service
//! session (cold, then warm on the hot pipeline) and both responses must
//! carry assembly byte-identical to a fresh one-shot compile.

use std::fmt;
use std::path::PathBuf;

use ipra_core::config::AllocOptions;
use ipra_core::ipra::CompiledModule;
use ipra_ir::interp::{self, InterpOptions, Trap};
use ipra_ir::Module;
use ipra_machine::Target;

use crate::{compile_only, run_compiled, Config};

/// Every named configuration the differential harness checks, in table
/// order: the `-O2` baseline, Table 1 columns A–C, the register-starved
/// Table 2 columns D and E, the no-allocation oracle config, the
/// `-O3` pipeline retargeted at the irregular register files — the
/// `embedded8` named target and the `convsearch`-winning partition — so
/// every seed also exercises conventions far from the mips-like shape
/// (skewed caller/callee split, few allocatable registers, reduced
/// argument-register count), and the two inliner ablation legs
/// (`inline/A`, `inline/C`), whose module transform must preserve the
/// interpreter oracle and the static register contracts just like any
/// allocation config.
pub fn all_configs() -> Vec<Config> {
    let mut v = vec![
        Config::o2_base(),
        Config::a(),
        Config::b(),
        Config::c(),
        Config::d(),
        Config::e(),
        Config::no_alloc(),
    ];
    for name in ["embedded8", "searched"] {
        v.push(Config {
            name: name.into(),
            target: Target::by_name(name).expect("registry target"),
            opts: AllocOptions::o3(),
        });
    }
    v.push(Config::inline_a());
    v.push(Config::inline_c());
    v
}

/// Knobs for one differential check.
#[derive(Clone, Debug, Default)]
pub struct DiffOptions {
    /// Budgets for the reference-interpreter oracle run. Seeds that
    /// exhaust them are reported as [`DiffVerdict::Skipped`].
    pub interp: InterpOptions,
    /// When set, a scratch directory for the cold-vs-warm cache check
    /// (run under configuration C). The harness creates and removes a
    /// subdirectory per call, so one root may serve many seeds.
    pub cache_root: Option<PathBuf>,
}

impl DiffOptions {
    /// Returns options with the oracle instruction budget replaced.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.interp = self.interp.with_fuel(fuel);
        self
    }

    /// Returns options with the cache scratch root set.
    pub fn with_cache_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.cache_root = Some(root.into());
        self
    }
}

/// A non-failing check result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DiffVerdict {
    /// Every configuration agreed with the oracle.
    Pass,
    /// The oracle run exhausted a resource budget; nothing was checked.
    Skipped(Trap),
}

/// One differential disagreement — a compiler bug until proven otherwise.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiffFailure {
    /// Name of the configuration (or pipeline stage) that disagreed.
    pub config: String,
    /// Human-readable description of the disagreement.
    pub what: String,
}

impl fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.config, self.what)
    }
}

impl std::error::Error for DiffFailure {}

fn fail(config: &str, what: impl Into<String>) -> DiffFailure {
    DiffFailure {
        config: config.to_string(),
        what: what.into(),
    }
}

/// Renders every function's machine code — the byte-identity witness for
/// the determinism and cache checks.
fn asm_of(compiled: &CompiledModule, config: &Config) -> String {
    let mut out = String::new();
    for (_, f) in compiled.mmodule.funcs.iter() {
        out.push_str(
            &f.display_in(&config.target.regs, &compiled.mmodule)
                .to_string(),
        );
        out.push('\n');
    }
    out
}

/// Describes the first index where two outputs diverge, compactly.
fn diff_outputs(got: &[i64], want: &[i64]) -> String {
    let i = got
        .iter()
        .zip(want.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.len().min(want.len()));
    format!(
        "output diverges at print #{i}: got {:?} (len {}), oracle {:?} (len {})",
        got.get(i),
        got.len(),
        want.get(i),
        want.len()
    )
}

/// Runs the full differential check on one module.
///
/// # Errors
///
/// Returns the first [`DiffFailure`] found: a simulator trap (including
/// register-preservation violations), an output mismatch against the
/// interpreter, or a warm-cache compile that differs from the cold one.
pub fn check_module(module: &Module, opts: &DiffOptions) -> Result<DiffVerdict, DiffFailure> {
    // IR well-formedness first: breakage introduced before allocation is
    // attributed to the frontend/IR stage, not to whichever configuration
    // happens to trip over it downstream.
    if let Err(errs) = ipra_ir::verify::verify_module(module) {
        return Err(fail(
            "ir-verify",
            format!("IR verifier rejected the module: {}", errs[0]),
        ));
    }

    let oracle = match interp::run_module_with(module, opts.interp) {
        Ok(r) => r,
        Err(t) if t.is_resource_limit() => return Ok(DiffVerdict::Skipped(t)),
        Err(t) => return Err(fail("interp", format!("oracle trapped: {t}"))),
    };

    for config in all_configs() {
        let compiled = compile_only(module, &config);
        // Static oracle: prove the register contracts on every path before
        // the dynamic run exercises one of them.
        if let Some(v) =
            ipra_verify::verify_module(&compiled.mmodule, &config.target.regs, &compiled.summaries)
                .first()
        {
            return Err(fail(
                &format!("static-verify/{}", config.name),
                format!("static verifier rejected the module: {v}"),
            ));
        }
        let m = run_compiled(&compiled, &config)
            .map_err(|t| fail(&config.name, format!("simulator trapped: {t}")))?;
        if m.output != oracle.output {
            return Err(fail(&config.name, diff_outputs(&m.output, &oracle.output)));
        }
    }

    if let Some(root) = &opts.cache_root {
        check_cache_roundtrip(module, root)?;
    }
    check_scratch_reuse(module)?;
    check_trace(module)?;
    Ok(DiffVerdict::Pass)
}

/// Scratch-reuse parity: compiling the same module twice through one
/// persistent [`ipra_core::Pipeline`] — the second pass replays memoized
/// analyses and runs inside recycled scratch buffers — must render
/// assembly byte-identical to a fresh one-shot compile, and the second
/// pass must answer every analysis lookup from the memo.
fn check_scratch_reuse(module: &Module) -> Result<(), DiffFailure> {
    let config = Config::c();
    let fresh = compile_only(module, &config);
    let want = asm_of(&fresh, &config);

    let pipe = ipra_core::Pipeline::new();
    let first = pipe.compile(module, &config.target, &config.opts);
    if asm_of(&first, &config) != want {
        return Err(fail(
            "scratch",
            "pipeline compile differs from one-shot compile",
        ));
    }
    let second = pipe.compile(module, &config.target, &config.opts);
    if asm_of(&second, &config) != want {
        return Err(fail(
            "scratch",
            "reused-scratch recompile differs from fresh compile",
        ));
    }
    let n = module.funcs.len() as u64;
    if second.analysis.hits != n || second.analysis.misses != 0 {
        return Err(fail(
            "scratch",
            format!(
                "warm recompile expected {n} analysis-memo hits / 0 misses, got {} / {}",
                second.analysis.hits, second.analysis.misses
            ),
        ));
    }
    Ok(())
}

/// Trace oracle: a traced compile+run of configuration C must produce a
/// `--trace-json` document that (a) round-trips through our own JSON
/// parser, (b) carries a well-formed span tree — unique ids, every parent
/// recorded before its children — and (c) has a per-edge penalty ledger
/// that reconciles *exactly* with the aggregate simulator statistics.
fn check_trace(module: &Module) -> Result<(), DiffFailure> {
    let config = Config::c();
    ipra_obs::enable();
    let compiled = compile_only(module, &config);
    let raw = ipra_obs::disable();

    // Span-tree well-formedness on the raw trace.
    let mut seen = std::collections::HashSet::new();
    for sp in &raw.spans {
        if !seen.insert(sp.id) {
            return Err(fail("trace", format!("duplicate span id {}", sp.id)));
        }
        if let Some(parent) = sp.parent_id {
            if parent >= sp.id {
                return Err(fail(
                    "trace",
                    format!("span {} has non-preceding parent {parent}", sp.id),
                ));
            }
        }
    }

    let m = run_compiled(&compiled, &config)
        .map_err(|t| fail("trace", format!("simulator trapped: {t}")))?;
    let trace = crate::CompileTrace::build(&config.name, &raw, &compiled, Some(&m.stats));

    // JSON round trip through our own parser.
    let rendered = trace.to_json().render_pretty();
    let doc = ipra_obs::json::parse(&rendered)
        .map_err(|e| fail("trace", format!("trace JSON does not re-parse: {e}")))?;
    if doc
        .get("penalty_by_edge")
        .and_then(|j| j.as_arr())
        .is_none()
    {
        return Err(fail("trace", "re-parsed trace lost `penalty_by_edge`"));
    }

    // Exact ledger-vs-aggregate reconciliation.
    let stats = &m.stats;
    let cls = ipra_machine::MemClass::SaveRestore;
    let spill = ipra_machine::MemClass::Spill;
    let cost = &ipra_sim::SimOptions::for_target(&config.target.regs).cost;
    let sums = trace.penalty_by_edge.iter().fold([0u64; 5], |mut a, e| {
        a[0] += e.sr_loads;
        a[1] += e.sr_stores;
        a[2] += e.spill_loads;
        a[3] += e.spill_stores;
        a[4] += e.penalty_cycles;
        a
    });
    let want = [
        stats.loads(cls),
        stats.stores(cls),
        stats.loads(spill),
        stats.stores(spill),
        stats.penalty_cycles(cost),
    ];
    if sums != want {
        return Err(fail(
            "trace",
            format!(
                "penalty ledger does not reconcile with aggregate stats: \
                 edge sums {sums:?} != aggregates {want:?} \
                 (sr loads/stores, spill loads/stores, penalty cycles)"
            ),
        ));
    }
    Ok(())
}

/// Cold compile populates a fresh cache directory; the warm compile must
/// replay every function and render byte-identical assembly. Checked
/// under configuration C and under the `inline/C` leg (whose transformed
/// bodies drive different cache keys through the same derivation).
fn check_cache_roundtrip(module: &Module, root: &std::path::Path) -> Result<(), DiffFailure> {
    for (label, base) in [("cache", Config::c()), ("inline/cache", Config::inline_c())] {
        let dir = root.join(format!("diff-{}-{label}", std::process::id()).replace('/', "-"));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cfg = base;
        cfg.opts.cache_dir = Some(dir.clone());
        let n = module.funcs.len() as u64;

        let cold = compile_only(module, &cfg);
        let warm = compile_only(module, &cfg);
        let result = if cold.cache.misses != n || cold.cache.hits != 0 {
            Err(fail(
                label,
                format!(
                    "cold compile expected {n} misses / 0 hits, got {} / {}",
                    cold.cache.misses, cold.cache.hits
                ),
            ))
        } else if warm.cache.hits != n || warm.cache.misses != 0 {
            Err(fail(
                label,
                format!(
                    "warm compile expected {n} hits / 0 misses, got {} / {}",
                    warm.cache.hits, warm.cache.misses
                ),
            ))
        } else if asm_of(&warm, &cfg) != asm_of(&cold, &cfg) {
            Err(fail(label, "warm assembly differs from cold"))
        } else {
            Ok(())
        };
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }
    Ok(())
}

/// Daemon-vs-oneshot oracle: the same source sent to a live in-process
/// compile service (a real session over a Unix socket pair, speaking the
/// framed wire protocol) must render assembly byte-identical to a fresh
/// one-shot compile — on the cold first request and on the warm repeat
/// answered from the hot pipeline.
fn check_service(source: &str, module: &Module) -> Result<(), DiffFailure> {
    use crate::service::{roundtrip, CompileRequest, RequestSource, Service};

    let config = Config::c();
    let want = asm_of(&compile_only(module, &config), &config);
    let service = Service::with_defaults();
    let (mut client, server) = std::os::unix::net::UnixStream::pair()
        .map_err(|e| fail("service", format!("socketpair failed: {e}")))?;
    std::thread::scope(|s| {
        let srv = s.spawn(move || service.serve_session(&server, &server));
        for (id, label) in [(1, "cold"), (2, "warm")] {
            let req = CompileRequest::new(id, RequestSource::Source(source.to_string()));
            let resp = roundtrip(&mut client, &req.to_json())
                .map_err(|e| fail("service", format!("{label} request failed: {e}")))?;
            if resp.get("status").and_then(|j| j.as_str()) != Some("ok") {
                return Err(fail(
                    "service",
                    format!("{label} compile not ok: {}", resp.render()),
                ));
            }
            if resp.get("asm").and_then(|j| j.as_str()) != Some(want.as_str()) {
                return Err(fail(
                    "service",
                    format!("{label} daemon assembly differs from one-shot compile"),
                ));
            }
            let warm_flag = resp.get("warm") == Some(&ipra_obs::json::Json::Bool(true));
            if warm_flag != (label == "warm") {
                return Err(fail(
                    "service",
                    format!("{label} request reported warm={warm_flag}"),
                ));
            }
        }
        drop(client);
        srv.join()
            .map_err(|_| fail("service", "session thread panicked"))?
            .map_err(|e| fail("service", format!("session torn down: {e}")))?;
        Ok(())
    })
}

/// Compiles Mini source and runs [`check_module`] on the result, then —
/// because only source-level seeds can exercise the wire protocol — the
/// daemon-vs-oneshot service oracle ([`check_service`]).
///
/// # Errors
///
/// A frontend rejection is a failure too — the generator promises valid
/// programs — reported under the pseudo-config `"frontend"`.
pub fn check_source(source: &str, opts: &DiffOptions) -> Result<DiffVerdict, DiffFailure> {
    let module = ipra_frontend::compile(source)
        .map_err(|e| fail("frontend", format!("generated source rejected: {e}")))?;
    let verdict = check_module(&module, opts)?;
    if verdict == DiffVerdict::Pass {
        check_service(source, &module)?;
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"
        fn add(a: int, b: int) -> int { return a + b; }
        fn main() { print(add(2, 3)); }
    "#;

    #[test]
    fn cross_product_includes_the_irregular_targets() {
        let names: Vec<String> = all_configs().into_iter().map(|c| c.name).collect();
        for want in ["embedded8", "searched"] {
            assert!(names.iter().any(|n| n == want), "{want} missing: {names:?}");
        }
    }

    #[test]
    fn healthy_program_passes_all_configs() {
        assert_eq!(
            check_source(OK, &DiffOptions::default()).unwrap(),
            DiffVerdict::Pass
        );
    }

    #[test]
    fn cache_roundtrip_check_passes_on_healthy_program() {
        let dir = std::env::temp_dir().join(format!("ipra-diff-test-{}", std::process::id()));
        let opts = DiffOptions::default().with_cache_root(&dir);
        assert_eq!(check_source(OK, &opts).unwrap(), DiffVerdict::Pass);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fuel_exhaustion_is_a_skip_not_a_failure() {
        // Terminates, but not within two instructions.
        let opts = DiffOptions::default().with_fuel(2);
        match check_source(OK, &opts).unwrap() {
            DiffVerdict::Skipped(t) => assert!(t.is_resource_limit()),
            v => panic!("expected a skip, got {v:?}"),
        }
    }

    #[test]
    fn service_oracle_accepts_a_healthy_program() {
        let module = ipra_frontend::compile(OK).unwrap();
        check_service(OK, &module).unwrap();
    }

    #[test]
    fn frontend_rejection_is_a_failure() {
        let err = check_source("fn main() { junk±; }", &DiffOptions::default()).unwrap_err();
        assert_eq!(err.config, "frontend");
    }

    #[test]
    fn output_divergence_reports_the_first_index() {
        let msg = diff_outputs(&[1, 2, 9], &[1, 2, 3]);
        assert!(msg.contains("print #2"), "{msg}");
        let msg = diff_outputs(&[1, 2], &[1, 2, 3]);
        assert!(msg.contains("print #2"), "{msg}");
    }
}
