//! Golden tests for the three-leg inlining × IPRA ablation
//! (`off` / `inline` / `inline+IPRA`, see `ipra_bench::inline_ablation`):
//! the rendered JSON document must be byte-identical across cold and warm
//! allocation caches; the
//! ablation invariant (inline+IPRA pays no more penalty than off) must
//! hold on every corpus program; and two workloads' inliner site counts
//! are pinned exactly, so any change to ranking, budget accounting or
//! candidate legality shows up as a diff in this file rather than as a
//! silent behavior drift.

use ipra_bench::inline_ablation::{ablation_to_json, run_ablation_modules};

/// The same 11-program corpus as `trace_golden` and `cache_golden`: the
/// demo, mutual recursion, a deep call DAG, six generator programs and
/// two real workloads.
fn corpus() -> Vec<(String, ipra_ir::Module)> {
    use ipra_workloads::synth;

    let demo = r#"
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
    let mutual = r#"
        fn even(n: int) -> int { if n == 0 { return 1; } return odd(n - 1); }
        fn odd(n: int) -> int { if n == 0 { return 0; } return even(n - 1); }
        fn main() { print(even(10) + odd(7)); }
    "#;
    let mut corpus: Vec<(String, ipra_ir::Module)> = vec![
        ("demo".into(), ipra_frontend::compile(demo).unwrap()),
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

/// The full ablation document must not depend on allocation-cache
/// temperature: three runs — no cache, cold cache, warm cache over the
/// same directory — render byte-identical JSON.
#[test]
fn ablation_json_is_byte_identical_across_cache_temperature() {
    let corpus = corpus();
    let doc = |rows: &_| ablation_to_json(rows).render_pretty();

    let uncached = doc(&run_ablation_modules(&corpus, None).expect("uncached runs"));
    let dir = std::env::temp_dir().join(format!("ipra-inline-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = doc(&run_ablation_modules(&corpus, Some(&dir)).expect("cold cache runs"));
    let warm = doc(&run_ablation_modules(&corpus, Some(&dir)).expect("warm cache runs"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        uncached, cold,
        "ablation JSON differs between no-cache and cold cache"
    );
    assert_eq!(
        cold, warm,
        "ablation JSON differs between cold and warm cache"
    );
}

/// The budget gate's invariant on this corpus: with IPRA on, inlining
/// must not add save/restore penalty in aggregate (individual tiny
/// programs may pay a few cycles more when splicing shifts register
/// pressure — `bench --check-budgets` gates the total, and so does this
/// test), the call-heaviest real workload (`nim`) must improve outright,
/// and the corpus must actually exercise the inliner.
#[test]
fn inline_plus_ipra_never_pays_more_penalty_than_off() {
    let rows = run_ablation_modules(&corpus(), None).expect("ablation runs");
    let total = |leg: usize| -> u64 { rows.iter().map(|r| r.legs[leg].penalty_cycles).sum() };
    assert!(
        total(2) <= total(0),
        "aggregate inline+IPRA penalty {} exceeds off-leg penalty {}",
        total(2),
        total(0)
    );
    for r in rows.iter().filter(|r| r.workload == "nim") {
        assert!(
            r.legs[2].penalty_cycles < r.legs[0].penalty_cycles,
            "[{}] inline+IPRA must strictly beat the off leg ({} vs {})",
            r.workload,
            r.legs[2].penalty_cycles,
            r.legs[0].penalty_cycles
        );
    }
    let inlined_total: u64 = rows.iter().map(|r| r.legs[2].sites_inlined).sum();
    assert!(inlined_total > 0, "corpus never exercised the inliner");
}

/// Exact inliner decisions on the two real workloads, pinned. A change
/// to the ranking, the budget arithmetic, or candidate legality must
/// update these numbers consciously — the budget off-by-one mutant in
/// `inline_mutants` is precisely the kind of drift this pin catches.
#[test]
fn site_counts_are_pinned_for_the_real_workloads() {
    let corpus: Vec<_> = corpus()
        .into_iter()
        .filter(|(n, _)| n == "nim" || n == "stanford")
        .collect();
    let rows = run_ablation_modules(&corpus, None).expect("ablation runs");
    let pin: Vec<(String, u64, u64, u64)> = rows
        .iter()
        .map(|r| {
            let l = &r.legs[2]; // inline+IPRA
            (
                r.workload.clone(),
                l.sites_considered,
                l.sites_inlined,
                l.budget_stops,
            )
        })
        .collect();
    assert_eq!(
        pin,
        vec![
            ("nim".to_string(), 13, 5, 1),
            ("stanford".to_string(), 29, 12, 3),
        ],
        "(workload, sites_considered, sites_inlined, budget_stops) drifted"
    );
}
