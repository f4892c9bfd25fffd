//! Golden determinism tests for the convention-search report: over the
//! same 11-program corpus the cache and trace golden tests use, the
//! rendered JSON and markdown must be byte-identical across runs and
//! across cache temperature (a cold compile populating a fresh
//! `--cache-dir` vs the warm replay from it). CI diffs the
//! `convsearch --small` artifact across cache temperature for the same
//! property at the binary level.

use std::path::PathBuf;

use ipra_driver::convsearch::{
    corpus_program, default_shapes, grid_points, run_search, CorpusProgram, SearchOptions,
};
use ipra_workloads::synth;

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

/// The same 11-program corpus the cache and trace golden tests use: the
/// demo, mutual recursion, a call tree, six generator programs and the
/// two bundled benchmark workloads.
fn corpus() -> Vec<CorpusProgram> {
    let mutual = r#"
        fn even(n: int) -> int { if n == 0 { return 1; } return odd(n - 1); }
        fn odd(n: int) -> int { if n == 0 { return 0; } return even(n - 1); }
        fn main() { print(even(10) + odd(7)); }
    "#;
    let mut corpus = vec![
        corpus_program("demo", ipra_frontend::compile(DEMO).unwrap()).unwrap(),
        corpus_program("mutual", ipra_frontend::compile(mutual).unwrap()).unwrap(),
        corpus_program("tree", synth::call_tree_program(3, 2, 4, 5)).unwrap(),
    ];
    for seed in 0..6u64 {
        let src = synth::random_source(seed, &synth::SourceConfig::default());
        corpus.push(
            corpus_program(
                &format!("synth-{seed}"),
                ipra_frontend::compile(&src).unwrap(),
            )
            .unwrap(),
        );
    }
    for w in ["nim", "stanford"] {
        let workload = ipra_workloads::by_name(w).unwrap();
        corpus
            .push(corpus_program(w, ipra_workloads::compile_workload(workload).unwrap()).unwrap());
    }
    corpus
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ipra-convsearch-{tag}-{}", std::process::id()))
}

/// The sparse sweep over both default shapes must pass every point on the
/// full corpus, and its report bytes must not depend on the run. The
/// search compiles every point on one thread, so the historical
/// `--jobs 1` / `--jobs 4` comparison is now two independent runs that
/// must render the same bytes.
#[test]
fn report_is_byte_identical_across_jobs() {
    let corpus = corpus();
    let shapes = default_shapes();
    let r1 = run_search(&corpus, &shapes, &SearchOptions::default());
    assert!(r1.failures.is_empty(), "{:#?}", r1.failures);
    assert_eq!(r1.num_points(), r1.num_passing_points());
    assert_eq!(r1.corpus.len(), 11);

    let r2 = run_search(&corpus, &shapes, &SearchOptions::default());
    assert_eq!(
        r1.to_json().render_pretty(),
        r2.to_json().render_pretty(),
        "JSON report differs between two runs"
    );
    assert_eq!(
        r1.to_markdown(),
        r2.to_markdown(),
        "markdown report differs between two runs"
    );
}

/// A cold search populating a fresh cache directory and the warm rerun
/// replaying from it must render byte-identical reports — and both must
/// match the uncached search.
#[test]
fn report_is_byte_identical_across_cache_temperature() {
    let corpus = corpus();
    let shapes = default_shapes();
    let dir = scratch_dir("cache");
    let _ = std::fs::remove_dir_all(&dir);

    let uncached = run_search(&corpus, &shapes, &SearchOptions::default());
    let cached_opts = SearchOptions {
        cache_dir: Some(dir.clone()),
        ..SearchOptions::default()
    };
    let cold = run_search(&corpus, &shapes, &cached_opts);
    let warm = run_search(&corpus, &shapes, &cached_opts);
    let _ = std::fs::remove_dir_all(&dir);

    let want = uncached.to_json().render_pretty();
    assert_eq!(
        cold.to_json().render_pretty(),
        want,
        "cold cached report differs from uncached"
    );
    assert_eq!(
        warm.to_json().render_pretty(),
        want,
        "warm cached report differs from uncached"
    );
    assert_eq!(warm.to_markdown(), uncached.to_markdown());
}

/// The dense grid — the one the committed `BENCH_convsearch.json` was
/// produced from — meets the coverage floor on every default shape.
#[test]
fn dense_grid_meets_the_coverage_floor() {
    for shape in default_shapes() {
        assert!(
            grid_points(&shape, true).len() >= 12,
            "{} dense grid below the 12-point floor",
            shape.name
        );
    }
}
