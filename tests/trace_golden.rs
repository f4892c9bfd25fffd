//! Golden tests for the observability trace: JSON shape and content of a
//! fixed demo module, and the zero-cost guarantee of the disabled path.

use ipra_driver::{compile_and_run, compile_and_run_traced, compile_only, Config};
use ipra_obs::json::{parse, Json};

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

const PHASES: [&str; 5] = ["ranges", "priority", "color", "shrink_wrap", "lower"];

#[test]
fn traced_json_has_every_phase_once_per_function() {
    let module = ipra_frontend::compile(DEMO).unwrap();
    let m = compile_and_run_traced(&module, &Config::c()).unwrap();
    let trace = m.trace.expect("traced run carries a trace");
    let doc = parse(&trace.to_json().render_pretty()).expect("emitted JSON parses");

    assert_eq!(doc.get("config").unwrap().as_str(), Some("C"));
    let funcs = doc.get("functions").unwrap().as_arr().unwrap();
    assert_eq!(funcs.len(), 2, "helper and main");

    for f in funcs {
        let name = f.get("name").unwrap().as_str().unwrap();
        let phases = f.get("phases").unwrap().as_arr().unwrap();

        // Every pipeline phase appears exactly once.
        for want in PHASES {
            let n = phases
                .iter()
                .filter(|p| p.get("name").unwrap().as_str() == Some(want))
                .count();
            assert_eq!(n, 1, "phase `{want}` of `{name}` appears {n} times");
        }
        assert_eq!(phases.len(), PHASES.len());

        // Non-negative durations and monotone start times in pipeline order
        // (lower runs in a later pass, so it starts after the others).
        let mut last_start = 0i64;
        for p in phases {
            let start = p.get("start_ns").unwrap().as_i64().unwrap();
            let dur = p.get("dur_ns").unwrap().as_i64().unwrap();
            assert!(
                start >= last_start,
                "phase starts must be monotone in `{name}`"
            );
            assert!(dur >= 0);
            last_start = start;
        }

        // Iteration counters present and >= 1.
        let counters = f.get("counters").unwrap();
        for c in ["dataflow.liveness.iterations", "shrink_wrap.iterations"] {
            let v = counters
                .get(c)
                .and_then(Json::as_i64)
                .unwrap_or_else(|| panic!("counter `{c}` missing for `{name}`"));
            assert!(v >= 1, "`{c}` of `{name}` is {v}");
        }

        // One decision per candidate vreg, each with a valid kind.
        let decisions = f.get("decisions").unwrap().as_arr().unwrap();
        assert!(!decisions.is_empty(), "`{name}` has candidate vregs");
        for d in decisions {
            let kind = d.get("kind").unwrap().as_str().unwrap();
            assert!(
                ["caller_saved", "callee_saved", "split", "mem"].contains(&kind),
                "bad decision kind `{kind}`"
            );
            assert!(d.get("priority").is_some());
        }

        // Simulator attribution is present and self-consistent.
        let sim = f.get("sim").unwrap();
        assert!(
            sim.get("cycles").unwrap().as_i64().unwrap() > 0,
            "`{name}` executed"
        );
    }

    // Decision count equals the compiler's candidate-vreg count per function.
    let compiled = compile_only(&module, &Config::c());
    for (ft, report) in trace.funcs.iter().zip(&compiled.reports) {
        assert_eq!(ft.name, report.name);
        assert_eq!(
            ft.decisions.len(),
            report.candidate_vregs,
            "one decision per candidate vreg in `{}`",
            ft.name
        );
    }

    // Whole-program simulator summary: the call edge main -> helper ran 20
    // times, and the depth histogram is consistent with it.
    let sim = doc.get("sim").unwrap();
    assert!(sim.get("cycles").unwrap().as_i64().unwrap() > 0);
    assert_eq!(sim.get("max_depth").unwrap().as_i64(), Some(2));
    // The depth histogram is a log₂ histogram object: 21 activations in
    // total, `main` once at depth 1 (bucket [1,2)), `helper` 20 times at
    // depth 2 (bucket [2,4)), exact max on the side.
    let hist = sim.get("depth_hist").unwrap();
    assert_eq!(hist.get("count").unwrap().as_i64(), Some(21));
    assert_eq!(hist.get("max").unwrap().as_i64(), Some(2));
    let buckets = hist.get("buckets").unwrap().as_arr().unwrap();
    let bucket_count = |lo: i64| {
        buckets
            .iter()
            .find(|b| b.get("lo").unwrap().as_i64() == Some(lo))
            .map(|b| b.get("count").unwrap().as_i64().unwrap())
            .unwrap_or(0)
    };
    assert_eq!(bucket_count(1), 1, "main enters once at depth 1");
    assert_eq!(bucket_count(2), 20, "helper enters 20 times at depth 2");

    // The penalty ledger attributes the save/restore traffic to edges and
    // sums exactly to the aggregate counts.
    let ledger = doc.get("penalty_by_edge").unwrap().as_arr().unwrap();
    assert!(!ledger.is_empty());
    let sum = |key: &str| -> i64 {
        ledger
            .iter()
            .map(|e| e.get(key).unwrap().as_i64().unwrap())
            .sum()
    };
    assert_eq!(
        sum("sr_loads"),
        sim.get("save_restore_loads").unwrap().as_i64().unwrap(),
        "ledger reconciles with aggregate loads"
    );
    assert_eq!(
        sum("sr_stores"),
        sim.get("save_restore_stores").unwrap().as_i64().unwrap(),
        "ledger reconciles with aggregate stores"
    );
    assert_eq!(
        sum("penalty_cycles"),
        sim.get("penalty_cycles").unwrap().as_i64().unwrap(),
        "ledger reconciles with aggregate penalty cycles"
    );
    let edges = sim.get("call_edges").unwrap().as_arr().unwrap();
    assert_eq!(edges.len(), 1);
    assert_eq!(edges[0].get("caller").unwrap().as_str(), Some("main"));
    assert_eq!(edges[0].get("callee").unwrap().as_str(), Some("helper"));
    assert_eq!(edges[0].get("count").unwrap().as_i64(), Some(20));
}

#[test]
fn disabled_sink_records_nothing_and_results_are_identical() {
    let module = ipra_frontend::compile(DEMO).unwrap();

    // Plain compilation with no sink: nothing may be recorded.
    let plain = compile_and_run(&module, &Config::c()).unwrap();
    assert!(plain.trace.is_none());
    assert!(
        ipra_obs::disable().is_empty(),
        "no trace collected on the disabled path"
    );

    // Tracing must not change what is compiled or measured.
    let traced = compile_and_run_traced(&module, &Config::c()).unwrap();
    assert_eq!(plain.output, traced.output);
    assert_eq!(
        plain.stats, traced.stats,
        "tracing must not perturb the simulation"
    );

    // And the sink is closed again afterwards.
    assert!(!ipra_obs::is_enabled());
}

/// The 11-program corpus the cache, inline and convention-search golden
/// tests also use: the demo, mutual recursion, a deep call DAG, six
/// generator programs and two real workloads.
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

#[test]
fn trace_counts_match_function_reports() {
    let module = ipra_frontend::compile(DEMO).unwrap();
    let m = compile_and_run_traced(&module, &Config::c()).unwrap();
    let trace = m.trace.unwrap();
    let compiled = compile_only(&module, &Config::c());

    for (ft, report) in trace.funcs.iter().zip(&compiled.reports) {
        let shrink = ft
            .counters
            .iter()
            .find(|(n, _)| n == "shrink_wrap.iterations")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(shrink, u64::from(report.shrink_iterations));
        let split = ft.decisions.iter().filter(|d| d.kind == "split").count();
        let mem = ft.decisions.iter().filter(|d| d.kind == "mem").count();
        assert_eq!(split, report.split_vregs, "split count in `{}`", ft.name);
        assert_eq!(mem, report.memory_vregs, "mem count in `{}`", ft.name);
    }

    // A one-shot compile allocates one function at a time: across the
    // corpus, the allocator phase spans never overlap in time, so their
    // sum fits inside the wall time of the `compile_module` call.
    let cfg = Config::c();
    for (name, module) in &corpus() {
        ipra_obs::enable();
        let t = std::time::Instant::now();
        let _ = ipra_core::ipra::compile_module(module, &cfg.target, &cfg.opts);
        let wall_ns = t.elapsed().as_nanos() as u64;
        let raw = ipra_obs::disable();

        let mut spans: Vec<_> = raw
            .spans
            .iter()
            .filter(|s| PHASES.contains(&s.name))
            .collect();
        assert!(!spans.is_empty(), "[{name}] no allocator spans");
        spans.sort_by_key(|s| s.start_ns);
        for w in spans.windows(2) {
            assert!(
                w[0].start_ns + w[0].dur_ns <= w[1].start_ns,
                "[{name}] `{}` of `{}` overlaps `{}` of `{}`",
                w[0].name,
                w[0].scope,
                w[1].name,
                w[1].scope
            );
        }
        let sum_ns: u64 = spans.iter().map(|s| s.dur_ns).sum();
        assert!(
            sum_ns <= wall_ns,
            "[{name}] allocator spans sum to {sum_ns} ns, compile took {wall_ns} ns"
        );
    }
}
