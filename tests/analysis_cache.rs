//! Tests for the per-function analysis memo and the reusable scratch
//! pools: a persistent [`ipra_core::Pipeline`] must replay analyses for
//! unchanged bodies and recompute exactly the edited ones, the compile
//! trace must carry the memo counters, and reusing scratch across
//! compiles (at any job count) must never change the machine code.

use ipra_core::ipra::CompiledModule;
use ipra_core::Pipeline;
use ipra_driver::{compile_and_run_traced, compile_only, Config};
use ipra_obs::json::parse;

const CHAIN: &str = r#"
fn leaf(a: int) -> int { return a + 1; }
fn mid(a: int) -> int { return leaf(a) + leaf(a + 1); }
fn top(a: int) -> int { return mid(a) * 2; }
fn other(a: int) -> int { return a * 3; }
fn main() { print(top(2) + other(5)); }
"#;

/// Renders every function's machine code — the byte-identity witness.
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

/// A cold compile misses the memo for every function, a warm recompile
/// of the identical module hits for every function, and editing one
/// body recomputes exactly that function's analyses — all while staying
/// bit-identical to fresh one-shot compiles.
#[test]
fn memo_invalidation_follows_body_edits_exactly() {
    let m1 = ipra_frontend::compile(CHAIN).unwrap();
    // Same shape, different constant: only `leaf`'s body hash changes.
    let m2 = ipra_frontend::compile(&CHAIN.replace("return a + 1;", "return a + 2;")).unwrap();
    let n = m1.funcs.len() as u64;
    let cfg = Config::c();

    let pipe = Pipeline::new();
    let cold = pipe.compile(&m1, &cfg.target, &cfg.opts);
    assert_eq!((cold.analysis.hits, cold.analysis.misses), (0, n));

    let warm = pipe.compile(&m1, &cfg.target, &cfg.opts);
    assert_eq!((warm.analysis.hits, warm.analysis.misses), (n, 0));
    assert_eq!(asm_of(&warm, &cfg), asm_of(&cold, &cfg));

    let edited = pipe.compile(&m2, &cfg.target, &cfg.opts);
    assert_eq!(
        (edited.analysis.hits, edited.analysis.misses),
        (n - 1, 1),
        "editing one body must recompute exactly that function's analyses"
    );
    assert_eq!(
        asm_of(&edited, &cfg),
        asm_of(&compile_only(&m2, &cfg), &cfg),
        "memoized compile of the edited module == fresh compile"
    );

    // Lifetime totals accumulate across the three compiles.
    let life = pipe.analysis_stats();
    assert_eq!((life.hits, life.misses), (2 * n - 1, n + 1));
}

/// The compile trace carries the analysis-memo window of its compile, in
/// both the JSON document and the text rendering. A one-shot compile
/// always runs on a fresh memo: all misses, no hits.
#[test]
fn trace_reports_analysis_memo_counters() {
    let module = ipra_frontend::compile(CHAIN).unwrap();
    let m = compile_and_run_traced(&module, &Config::c()).unwrap();
    let trace = m.trace.expect("traced run carries a trace");

    let doc = parse(&trace.to_json().render_pretty()).expect("emitted JSON parses");
    let analysis = doc
        .get("analysis")
        .expect("trace JSON has an analysis object");
    assert_eq!(analysis.get("hits").unwrap().as_i64(), Some(0));
    assert_eq!(
        analysis.get("misses").unwrap().as_i64(),
        Some(module.funcs.len() as i64)
    );
    assert!(trace
        .render_text()
        .contains("analysis memo: 0 hits, 5 misses"));
}

/// Scratch reuse must be invisible in the output: recompiling through
/// one pipeline (cold and warm memo) renders the same bytes as a fresh
/// one-shot compile every time.
#[test]
fn reused_scratch_is_bit_identical() {
    let workload = ipra_workloads::by_name("nim").unwrap();
    let module = ipra_workloads::compile_workload(workload).unwrap();
    let cfg = Config::c();
    let want = asm_of(&compile_only(&module, &cfg), &cfg);

    let pipe = Pipeline::new();
    for round in 0..3 {
        let got = pipe.compile(&module, &cfg.target, &cfg.opts);
        assert_eq!(
            asm_of(&got, &cfg),
            want,
            "round {round}: reused scratch changed the output"
        );
    }
}
