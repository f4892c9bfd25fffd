//! Golden tests for the incremental allocation cache: warm compiles must be
//! bit-identical to cold ones across the whole corpus, invalidation must
//! follow the call graph exactly, early cutoff must stop recompilation at
//! callers whose callees' summaries are byte-identical, and a damaged cache
//! must degrade to a cold compile — never to a panic or a wrong program.

use ipra_callgraph::{CallGraph, SccInfo};
use ipra_core::ipra::CompiledModule;
use ipra_driver::{compile_only, run_compiled, Config};

/// A scratch cache directory, unique per test and process.
fn cache_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ipra-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Everything observable about one compilation: program output, simulator
/// stats, summaries, clobber masks, reports and the rendered machine code.
fn observe(compiled: &CompiledModule, config: &Config) -> String {
    let m = run_compiled(compiled, config).expect("program runs");
    let mut out = String::new();
    out.push_str(&format!("output: {:?}\nstats: {:?}\n", m.output, m.stats));
    out.push_str(&format!(
        "summaries: {:?}\nclobbers: {:?}\nreports: {:?}\n",
        compiled.summaries, compiled.clobber_masks, compiled.reports
    ));
    for (_, f) in compiled.mmodule.funcs.iter() {
        out.push_str(
            &f.display_in(&config.target.regs, &compiled.mmodule)
                .to_string(),
        );
        out.push('\n');
    }
    out
}

const DEMO: &str = r#"
fn helper(a: int, b: int) -> int {
    var t: int = a * b;
    if t > 100 { t = t - 100; }
    return t + 1;
}
fn main() {
    var acc: int = 0;
    var i: int = 0;
    while i < 20 {
        acc = acc + helper(i, acc);
        i = i + 1;
    }
    print(acc);
}
"#;

/// The same 11-program corpus as `trace_golden`: the demo, mutual
/// recursion, a deep call DAG, six generator programs and two real
/// workloads.
fn corpus() -> Vec<(String, ipra_ir::Module)> {
    use ipra_workloads::synth;

    let mutual = r#"
        fn even(n: int) -> int { if n == 0 { return 1; } return odd(n - 1); }
        fn odd(n: int) -> int { if n == 0 { return 0; } return even(n - 1); }
        fn main() { print(even(10) + odd(7)); }
    "#;
    let mut corpus: Vec<(String, ipra_ir::Module)> = vec![
        ("demo".into(), ipra_frontend::compile(DEMO).unwrap()),
        ("mutual".into(), ipra_frontend::compile(mutual).unwrap()),
        ("tree".into(), synth::call_tree_program(3, 2, 4, 5)),
    ];
    for seed in 0..6u64 {
        let src = synth::random_source(seed, &synth::SourceConfig::default());
        corpus.push((
            format!("synth-{seed}"),
            ipra_frontend::compile(&src).unwrap(),
        ));
    }
    for w in ["nim", "stanford"] {
        let workload = ipra_workloads::by_name(w).unwrap();
        corpus.push((
            w.into(),
            ipra_workloads::compile_workload(workload).unwrap(),
        ));
    }
    corpus
}

/// Warm compiles must replay every function from the cache and still be
/// bit-identical to the cold compile — machine code, summaries, clobber
/// masks, reports, output and stats.
#[test]
fn warm_compile_is_bit_identical_to_cold_across_corpus() {
    let dir = cache_dir("warm");
    for (name, module) in &corpus() {
        let mut cfg = Config::c();
        let baseline = compile_only(module, &cfg);
        assert!(!baseline.cache.enabled, "[{name}] no cache configured");

        cfg.opts.cache_dir = Some(dir.join(name));
        let cold = compile_only(module, &cfg);
        let n = module.funcs.len() as u64;
        assert_eq!(cold.cache.misses, n, "[{name}] cold misses all");
        assert_eq!(cold.cache.hits, 0, "[{name}] cold has no hits");

        let warm = compile_only(module, &cfg);
        assert_eq!(warm.cache.hits, n, "[{name}] warm hits all");
        assert_eq!(warm.cache.misses, 0, "[{name}] warm misses none");
        assert_eq!(warm.cache.cutoffs, 0, "[{name}] nothing recompiled");

        let want = observe(&baseline, &cfg);
        assert_eq!(observe(&cold, &cfg), want, "[{name}] cold == uncached");
        assert_eq!(observe(&warm, &cfg), want, "[{name}] warm == cold");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shard names a cold `-O3` compile writes are the component cache
/// keys. They are pinned so cache directories written by earlier builds
/// keep hitting: a compile-loop change that moves them must also bump
/// `CACHE_FORMAT_VERSION`.
#[test]
fn cold_compile_derives_the_pinned_cache_keys() {
    const NIM: [&str; 7] = [
        "6b7b084da8ab3148",
        "902fa201361f0bec",
        "b7bb137fedfd73ab",
        "c601bde5be05aaa5",
        "d295a704a745f282",
        "d409d32fdbc2bde8",
        "d47012ce591c7427",
    ];
    const STANFORD: [&str; 18] = [
        "08ee6760f6a1aa4e",
        "353960cf5d5c3dcc",
        "3591fb04c8bd66a2",
        "5123f808d35f096e",
        "5209d992b4dcd3c1",
        "61a940225013c4b7",
        "740f352340bfea25",
        "819cc421a1707a13",
        "93e5477bfd946e7a",
        "94f76ade821ff369",
        "a9f81f5d26c4a8bd",
        "ab6d74af027d3eff",
        "b5eb31739a031f84",
        "ba83696a4b00eee3",
        "bc61558c16e61cc3",
        "eb6d150f2462b7cf",
        "f6947bba684af13a",
        "fb100611013cd5ea",
    ];
    for (w, keys) in [("nim", &NIM[..]), ("stanford", &STANFORD[..])] {
        let dir = cache_dir(&format!("keys-{w}"));
        let mut cfg = Config::c();
        cfg.opts.cache_dir = Some(dir.clone());
        let module = ipra_workloads::compile_workload(ipra_workloads::by_name(w).unwrap()).unwrap();
        compile_only(&module, &cfg);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let want: Vec<String> = keys.iter().map(|k| format!("{k}.ce.json")).collect();
        assert_eq!(names, want, "[{w}] cache keys moved");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

const CHAIN_V1: &str = r#"
fn leaf(a: int) -> int { return a + 1; }
fn mid(a: int) -> int { return leaf(a) + leaf(a + 1); }
fn top(a: int) -> int { return mid(a) * 2; }
fn other(a: int) -> int { return a * 3; }
fn main() { print(top(2) + other(5)); }
"#;

/// Editing a leaf's body without changing its summary or subtree register
/// usage must recompile exactly that leaf: its callers replay from the
/// cache (the early cutoff), and the result is still bit-identical to a
/// cold compile of the edited program.
#[test]
fn leaf_edit_with_unchanged_summary_recompiles_exactly_one_function() {
    // Same shape, same register demand — only the constant differs, so
    // `leaf`'s summary and tree-used mask are unchanged.
    let v2 = CHAIN_V1.replace("return a + 1;", "return a + 2;");

    let m1 = ipra_frontend::compile(CHAIN_V1).unwrap();
    let m2 = ipra_frontend::compile(&v2).unwrap();

    let dir = cache_dir("cutoff");
    let mut cfg = Config::c();
    cfg.opts.cache_dir = Some(dir.clone());

    let cold1 = compile_only(&m1, &cfg);
    assert_eq!(cold1.cache.misses, 5);
    // Precondition for the cutoff: the edit leaves the exported interface
    // byte-identical.
    let fresh2 = compile_only(&m2, &Config::c());
    assert_eq!(
        format!("{:?}", cold1.summaries),
        format!("{:?}", fresh2.summaries)
    );

    let warm2 = compile_only(&m2, &cfg);
    assert_eq!(
        warm2.cache.recompiled,
        vec!["leaf".to_string()],
        "only the edited leaf recompiles"
    );
    assert_eq!(warm2.cache.misses, 1);
    assert_eq!(warm2.cache.hits, 4);
    assert!(
        warm2.cache.cutoffs > 0,
        "a caller of the recompiled leaf must report the cutoff"
    );
    assert_eq!(
        observe(&warm2, &cfg),
        observe(&fresh2, &cfg),
        "incremental result == cold compile of the edited program"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Editing a leaf so that its register usage (summary / tree-used mask)
/// changes must invalidate exactly the leaf's ancestor set in the call
/// graph — `other`, which cannot reach the leaf, stays cached.
#[test]
fn interface_change_invalidates_exactly_the_ancestor_set() {
    // The new leaf keeps many values live at once: its used-register set
    // (hence its subtree mask, hence every ancestor's cache key) changes.
    let v2 = CHAIN_V1.replace(
        "fn leaf(a: int) -> int { return a + 1; }",
        r#"fn leaf(a: int) -> int {
            var b: int = a * 2; var c: int = b + a; var d: int = c * b;
            var e: int = d - a; var f: int = e * c; var g: int = f + d;
            return b + c + d + e + f + g;
        }"#,
    );

    let m1 = ipra_frontend::compile(CHAIN_V1).unwrap();
    let m2 = ipra_frontend::compile(&v2).unwrap();

    let dir = cache_dir("ancestors");
    let mut cfg = Config::c();
    cfg.opts.cache_dir = Some(dir.clone());
    compile_only(&m1, &cfg);

    // The expected invalidation set, from the call graph itself.
    let cg = CallGraph::build(&m2);
    let scc = SccInfo::compute(&cg);
    let leaf = m2.func_by_name("leaf").unwrap();
    let ancestors: Vec<String> = scc
        .dirty_closure(&cg, &[leaf])
        .into_iter()
        .map(|fid| m2.funcs[fid].name.clone())
        .collect();
    assert_eq!(ancestors, ["leaf", "mid", "top", "main"]);

    let warm2 = compile_only(&m2, &cfg);
    assert_eq!(
        warm2.cache.recompiled, ancestors,
        "invalidation must be exactly the ancestor set"
    );
    assert_eq!(warm2.cache.hits, 1, "`other` replays from the cache");
    assert_eq!(
        observe(&warm2, &cfg),
        observe(&compile_only(&m2, &Config::c()), &cfg),
        "incremental result == cold compile of the edited program"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Editing a function the inliner spliced away must recompile exactly
/// the inliner's ancestor set: the function itself plus every function
/// whose post-inline body transitively contains the splice. Functions
/// outside that set replay from the cache — the inliner must not turn
/// every edit into a cold compile — and the warm result stays
/// bit-identical to a cold compile of the edited program.
#[test]
fn editing_an_inlined_away_function_recompiles_the_inline_ancestor_set() {
    // A constant-only edit: under the plain config the early cutoff
    // confines this to `leaf` alone (previous test). Under the inliner
    // the spliced copies of `leaf`'s body change too, so the ancestor
    // set must recompile — and nothing else.
    let v2 = CHAIN_V1.replace("return a + 1;", "return a + 2;");
    let m1 = ipra_frontend::compile(CHAIN_V1).unwrap();
    let m2 = ipra_frontend::compile(&v2).unwrap();

    let dir = cache_dir("inline-cutoff");
    let mut cfg = Config::inline_c();
    cfg.opts.cache_dir = Some(dir.clone());

    let cold1 = compile_only(&m1, &cfg);
    assert_eq!(cold1.cache.misses, 5);

    // The expected invalidation set, from the inliner's own edge list:
    // the transitive closure of "spliced `leaf` (or a function containing
    // it) into its body".
    let mut expected: std::collections::BTreeSet<String> =
        std::iter::once("leaf".to_string()).collect();
    loop {
        let before = expected.len();
        for (caller, callee) in &cold1.inline.edges {
            if expected.contains(callee) {
                expected.insert(caller.clone());
            }
        }
        if expected.len() == before {
            break;
        }
    }
    assert!(
        expected.len() > 1,
        "fixture must actually inline leaf somewhere (edges: {:?})",
        cold1.inline.edges
    );

    let warm2 = compile_only(&m2, &cfg);
    let recompiled: std::collections::BTreeSet<String> =
        warm2.cache.recompiled.iter().cloned().collect();
    assert_eq!(
        recompiled, expected,
        "recompilation must cover exactly the inline-ancestor set"
    );
    assert_eq!(
        warm2.cache.hits,
        5 - expected.len() as u64,
        "functions outside the splice set replay from the cache"
    );

    let fresh2 = compile_only(&m2, &Config::inline_c());
    assert_eq!(
        observe(&warm2, &cfg),
        observe(&fresh2, &cfg),
        "incremental result == cold compile of the edited program"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupted, truncated, or version-skewed shard files must behave
/// exactly like an empty cache: a cold compile that then repopulates the
/// directory. Entries live in per-key `<key>.ce.json` shards, so the test
/// damages every shard the warm compile would read.
#[test]
fn damaged_cache_degrades_to_cold_compile() {
    let module = ipra_frontend::compile(DEMO).unwrap();
    let dir = cache_dir("damaged");

    let mut cfg = Config::c();
    cfg.opts.cache_dir = Some(dir.clone());
    let want = observe(&compile_only(&module, &Config::c()), &cfg);

    /// The shard files currently in the cache directory.
    fn shards(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut v: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.to_string_lossy().ends_with(".ce.json"))
            .collect();
        v.sort();
        v
    }

    for garbage in [
        "not json at all",
        "{\"version\": 999, \"funcs\": []}",
        "{\"version\": 1, \"funcs\": [17, \"nope\"]}",
        "",
    ] {
        // Populate, then damage every shard.
        compile_only(&module, &cfg);
        let files = shards(&dir);
        assert_eq!(files.len(), 2, "one shard per single-function component");
        for f in &files {
            std::fs::write(f, garbage).unwrap();
        }

        let c = compile_only(&module, &cfg);
        assert_eq!(c.cache.hits, 0, "damaged cache yields no hits");
        assert_eq!(c.cache.misses, 2, "damaged cache compiles cold");
        assert_eq!(observe(&c, &cfg), want, "and the result is unharmed");
    }

    // The cold compile rewrote the shards; the next compile is warm again.
    let warm = compile_only(&module, &cfg);
    assert_eq!(warm.cache.hits, 2);

    // A stray legacy monolithic cache file is ignored entirely.
    std::fs::write(dir.join("ipra-cache.json"), "legacy").unwrap();
    let still_warm = compile_only(&module, &cfg);
    assert_eq!(still_warm.cache.hits, 2);
    let _ = std::fs::remove_dir_all(&dir);
}
