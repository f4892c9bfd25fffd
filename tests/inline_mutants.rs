//! Mutation tests: the inliner's safety net must have teeth. Each test
//! plants one classic inlining bug — via the `#[doc(hidden)]` mutation
//! hooks in `ipra_core::inline`, or by pairing artifacts the way a
//! missing invalidation would — and asserts the static verifier, the IR
//! verifier, or the differential interpreter oracle catches it. A net
//! that lets any of these through would also wave through the real
//! thing.

use std::collections::HashSet;

use ipra_core::inline::{inline_with_mutation, InlineMutation};
use ipra_driver::{compile_only, Config};
use ipra_ir::Module;

/// Caller with several values live across one call (so un-renamed callee
/// locals have state to trample), plus an address-taken helper called
/// both directly and through a function pointer (so stubbing the
/// out-of-line body is observable).
const SOURCE: &str = r#"
fn leaf(a: int, b: int) -> int {
    return a * 2 + b;
}
fn taken(x: int) -> int {
    return x + 40;
}
fn busy(a: int, b: int) -> int {
    var x: int = a + b;
    var y: int = a - b;
    var z: int = a * b;
    var w: int = a + 7;
    var v: int = leaf(x, y);
    return v + x + y + z + w;
}
fn main() {
    var p: fnptr = &taken;
    print(busy(3, 4));
    print(taken(1));
    print(p(2));
}
"#;

fn module() -> Module {
    ipra_frontend::compile(SOURCE).expect("fixture compiles")
}

fn mutate(m: &mut Module, budget: u32, mutation: InlineMutation) -> ipra_core::InlineStats {
    inline_with_mutation(m, budget, &HashSet::new(), None, mutation)
}

fn interp_output(m: &Module) -> Result<Vec<i64>, String> {
    ipra_ir::interp::run_module(m)
        .map(|r| r.output)
        .map_err(|t| t.to_string())
}

/// Renders one function's machine code — the byte-identity witness.
fn func_asm(compiled: &ipra_core::CompiledModule, config: &Config, name: &str) -> String {
    let f = compiled
        .mmodule
        .funcs
        .iter()
        .map(|(_, f)| f)
        .find(|f| f.name == name)
        .expect("fixture function exists");
    f.display_in(&config.target.regs, &compiled.mmodule)
        .to_string()
}

/// Bug 1: forgetting to invalidate cached per-function artifacts after
/// the inliner rewrites bodies, so a warm cache replays a callee's
/// *pre-inline* machine code. IPRA packs registers bottom-up, which
/// makes the post-inline clobber mask equal the pre-inline transitive
/// union — so the static verifier and the preservation checker are
/// structurally blind to this bug. The net that does have teeth is the
/// byte oracle: a stale replay differs byte-for-byte from a cold
/// compile, exactly what the differential harness's cache roundtrip
/// rejects. This test proves (a) the plant is byte-visible and (b) the
/// real pipeline's invalidation (inline flag + budget in the config
/// fingerprint, body re-hash after splicing) replays nothing stale.
#[test]
fn stale_pre_inline_summaries_are_caught() {
    // Budget 8 admits exactly the busy→leaf site (budgets 4..=24 inline
    // only that edge on this fixture), so `busy`'s body changes while
    // its name and signature stay identical — the worst case for an
    // invalidation bug.
    let m = module();
    let plain_cfg = Config::c();
    let mut inline_cfg = Config::inline_c();
    inline_cfg.opts.inline_budget = 8;

    let plain = compile_only(&m, &plain_cfg);
    let inlined = compile_only(&m, &inline_cfg);
    assert_eq!(
        inlined.inline.edges,
        vec![("busy".to_string(), "leaf".to_string())],
        "budget 8 must inline exactly the busy→leaf site"
    );

    // (a) The stale pairing is byte-visible: replaying busy's pre-inline
    // machine code under the inline config yields different bytes than
    // the correct cold compile, so any warm-vs-cold assembly compare
    // (the differential harness's cache roundtrip) flags it.
    assert_ne!(
        func_asm(&plain, &plain_cfg, "busy"),
        func_asm(&inlined, &inline_cfg, "busy"),
        "the inliner must change busy's machine code, or a stale replay \
         would be unobservable"
    );

    // (b) The real pipeline cannot produce the pairing: a cache
    // populated by the pre-inline compile yields zero hits under the
    // inline config (the fingerprint covers the effective inline flag
    // and budget), and the warm result is byte-identical to a fresh
    // no-cache inline compile.
    let dir = std::env::temp_dir().join(format!("inline-mutants-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut plain_cached = Config::c();
    plain_cached.opts.cache_dir = Some(dir.clone());
    let mut inline_cached = Config::inline_c();
    inline_cached.opts.inline_budget = 8;
    inline_cached.opts.cache_dir = Some(dir.clone());

    let seeded = compile_only(&m, &plain_cached);
    assert!(
        seeded.cache.misses > 0,
        "cold compile must populate the cache"
    );
    let warm = compile_only(&m, &inline_cached);
    assert_eq!(
        warm.cache.hits, 0,
        "a pre-inline cache entry replayed under the inline config: stale \
         summaries/code escaped invalidation"
    );
    for name in ["leaf", "taken", "busy", "main"] {
        assert_eq!(
            func_asm(&warm, &inline_cached, name),
            func_asm(&inlined, &inline_cfg, name),
            "{name}: warm-over-stale-cache assembly differs from a fresh \
             inline compile"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Control: the fresh pairing is clean — the net only fires on bugs.
    assert!(ipra_verify::verify_module(
        &inlined.mmodule,
        &inline_cfg.target.regs,
        &inlined.summaries
    )
    .is_empty());
}

/// Bug 2: splicing the callee body without renaming its vregs, so callee
/// locals capture caller state. The IR verifier or the interpreter
/// oracle must notice.
#[test]
fn unrenamed_local_capture_is_caught() {
    let healthy_out = interp_output(&module()).expect("fixture runs");

    let mut mutant = module();
    let stats = mutate(
        &mut mutant,
        ipra_core::DEFAULT_INLINE_BUDGET,
        InlineMutation::SkipRenaming,
    );
    assert!(stats.inlined > 0, "mutation must exercise a splice");

    let ir_broken = ipra_ir::verify::verify_module(&mutant).is_err();
    // Only consult the interpreter oracle on IR the verifier accepts:
    // un-renamed splices can leave out-of-range vregs the interpreter is
    // entitled to treat as unreachable (it asserts, not traps).
    let diverged = if ir_broken {
        false
    } else {
        match interp_output(&mutant) {
            Ok(out) => out != healthy_out,
            Err(_) => true, // trapping is also a catch
        }
    };
    assert!(
        ir_broken || diverged,
        "un-renamed callee locals aliased caller state without either the IR \
         verifier or the interpreter oracle noticing"
    );

    // Control: the healthy pass preserves output exactly.
    let mut clean = module();
    mutate(
        &mut clean,
        ipra_core::DEFAULT_INLINE_BUDGET,
        InlineMutation::None,
    );
    assert_eq!(interp_output(&clean).expect("runs"), healthy_out);
}

/// Bug 3: treating an address-taken callee as private — inlining its
/// direct site and deleting (stubbing) the out-of-line body. Calls
/// through the taken address now reach the stub, which the differential
/// interpreter oracle sees as an output change.
#[test]
fn inlining_an_address_taken_callee_is_caught() {
    let healthy_out = interp_output(&module()).expect("fixture runs");

    // The healthy pass must refuse the address-taken callee entirely.
    let mut clean = module();
    let clean_stats = mutate(&mut clean, u32::MAX, InlineMutation::None);
    assert!(
        !clean_stats
            .edges
            .iter()
            .any(|(_, callee)| callee == "taken"),
        "healthy pass must never inline an address-taken callee"
    );
    assert_eq!(interp_output(&clean).expect("runs"), healthy_out);

    let mut mutant = module();
    let stats = mutate(
        &mut mutant,
        u32::MAX,
        InlineMutation::TreatAddressTakenAsPrivate,
    );
    assert!(
        stats.edges.iter().any(|(_, callee)| callee == "taken"),
        "mutation must inline the address-taken callee to plant the bug"
    );
    let diverged = match interp_output(&mutant) {
        Ok(out) => out != healthy_out,
        Err(_) => true,
    };
    assert!(
        diverged,
        "stubbing an address-taken callee's out-of-line body went unnoticed \
         by the interpreter oracle"
    );
}

/// Bug 4: a budget comparison that admits one instruction too many. At
/// the exact admission boundary the healthy and mutated passes diverge
/// by exactly one budget step — which the golden ablation test's pinned
/// site counts would flag on any corpus program sitting on the boundary.
#[test]
fn budget_off_by_one_is_caught_at_the_boundary() {
    let count_at = |budget: u32, mutation: InlineMutation| {
        let mut m = module();
        mutate(&mut m, budget, mutation).inlined
    };
    // Find the boundary: the smallest budget where the healthy pass
    // admits more than it does at zero.
    let boundary = (1..256)
        .find(|&b| count_at(b, InlineMutation::None) > count_at(0, InlineMutation::None))
        .expect("some budget admits the first site");
    assert!(
        count_at(boundary - 1, InlineMutation::BudgetOffByOne)
            > count_at(boundary - 1, InlineMutation::None),
        "one below the boundary, the off-by-one mutant must admit a site the \
         healthy pass refuses"
    );
    // The mutant at B behaves like the healthy pass at B+1: a pure
    // budget-contract violation, pinned by the golden site counts.
    for b in [boundary - 1, boundary, boundary + 7] {
        assert_eq!(
            count_at(b, InlineMutation::BudgetOffByOne),
            count_at(b + 1, InlineMutation::None),
            "mutant at budget {b} must equal healthy at {}",
            b + 1
        );
    }
}
