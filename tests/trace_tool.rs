//! Integration tests for the penalty-attribution flight recorder: exact
//! ledger reconciliation across the corpus, Chrome trace-event validity
//! on a real compile, and the `trace-tool` binary's exit-code contract.

use ipra_driver::{compile_and_run_traced, compile_only, Config};
use ipra_machine::MemClass;
use ipra_obs::json::Json;
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
fn corpus() -> Vec<(String, ipra_ir::Module)> {
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

/// The acceptance bar for the ledger: per-edge penalty rows must sum
/// *exactly* — not approximately — to the aggregate simulator statistics
/// on every corpus program, for save/restore traffic, spill traffic and
/// priced penalty cycles alike.
#[test]
fn penalty_ledger_reconciles_exactly_across_corpus() {
    for (name, module) in &corpus() {
        let config = Config::c();
        let m = compile_and_run_traced(module, &config)
            .unwrap_or_else(|t| panic!("[{name}] trapped: {t}"));
        let trace = m.trace.expect("traced run carries a trace");
        let stats = &m.stats;
        let cost = &ipra_sim::SimOptions::for_target(&config.target.regs).cost;

        let ledger = &trace.penalty_by_edge;
        assert!(!ledger.is_empty(), "[{name}] ledger has edges");
        let sum =
            |f: fn(&ipra_driver::trace::PenaltyEdge) -> u64| -> u64 { ledger.iter().map(f).sum() };
        assert_eq!(
            sum(|e| e.sr_loads),
            stats.loads(MemClass::SaveRestore),
            "[{name}] save/restore loads"
        );
        assert_eq!(
            sum(|e| e.sr_stores),
            stats.stores(MemClass::SaveRestore),
            "[{name}] save/restore stores"
        );
        assert_eq!(
            sum(|e| e.spill_loads),
            stats.loads(MemClass::Spill),
            "[{name}] spill loads"
        );
        assert_eq!(
            sum(|e| e.spill_stores),
            stats.stores(MemClass::Spill),
            "[{name}] spill stores"
        );
        assert_eq!(
            sum(|e| e.penalty_cycles),
            stats.penalty_cycles(cost),
            "[{name}] penalty cycles"
        );
        assert_eq!(
            sum(|e| e.calls),
            stats.calls,
            "[{name}] ledger call counts match aggregate calls"
        );
    }
}

/// Chrome/Perfetto export of a real traced compile: parses as JSON,
/// carries `traceEvents`, and every event has the trace-event-format
/// required keys with complete events also carrying a duration.
#[test]
fn chrome_export_of_a_real_compile_has_required_keys() {
    let module = ipra_frontend::compile(DEMO).unwrap();
    let config = Config::c();
    ipra_obs::enable();
    let _compiled = compile_only(&module, &config);
    let raw = ipra_obs::disable();
    assert!(!raw.spans.is_empty(), "traced compile records spans");

    let doc = ipra_obs::chrome::export(&raw, &config.name);
    let rendered = doc.render_pretty();
    let reparsed = ipra_obs::json::parse(&rendered).expect("chrome JSON parses");

    let events = reparsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(events.len() >= raw.spans.len(), "one X event per span");
    let mut seen_x = 0;
    for ev in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "event missing `{key}`: {ev:?}");
        }
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        match ph {
            "X" => {
                seen_x += 1;
                assert!(ev.get("dur").is_some(), "complete event missing `dur`");
                assert!(ev.get("ts").unwrap().as_f64().unwrap() >= 0.0);
            }
            "M" => {}
            other => panic!("unexpected event phase `{other}`"),
        }
    }
    assert_eq!(seen_x, raw.spans.len());
}

/// Runs the built `trace-tool` binary and returns (exit code, stdout).
fn run_tool(args: &[&str]) -> (i32, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_trace-tool"))
        .args(args)
        .output()
        .expect("trace-tool runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// End-to-end exit-code contract: a self-diff of a real trace is clean
/// (exit 0) while a planted ≥10% penalty regression makes `diff` exit
/// nonzero; `top` and `flame` work on the same document.
#[test]
fn trace_tool_diff_flags_planted_regression_with_nonzero_exit() {
    let module = ipra_frontend::compile(DEMO).unwrap();
    let m = compile_and_run_traced(&module, &Config::c()).unwrap();
    let trace = m.trace.unwrap();
    let baseline = trace.to_json().render_pretty();

    // Plant the regression structurally: re-parse the real document and
    // scale every penalty quantity up 50%, so the diff sees the same
    // program with strictly worse save/restore behaviour.
    let planted = match ipra_obs::json::parse(&baseline).unwrap() {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    if k == "sim" || k == "penalty_by_edge" {
                        (k, scale_penalties(v))
                    } else {
                        (k, v)
                    }
                })
                .collect(),
        ),
        _ => unreachable!("trace documents are objects"),
    };

    let dir = std::env::temp_dir().join(format!("ipra-trace-tool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, &baseline).unwrap();
    std::fs::write(&new, planted.render_pretty()).unwrap();
    let old = old.to_str().unwrap();
    let new = new.to_str().unwrap();

    let (code, text) = run_tool(&["diff", old, old]);
    assert_eq!(code, 0, "self-diff is clean:\n{text}");
    assert!(text.contains("0 regression(s)"), "{text}");

    let (code, text) = run_tool(&["diff", old, new]);
    assert_eq!(code, 1, "planted regression exits 1:\n{text}");
    assert!(text.contains("REGRESSED"), "{text}");

    // The planted trace as a *baseline* is an improvement, not a
    // regression.
    let (code, _) = run_tool(&["diff", new, old]);
    assert_eq!(code, 0, "improvements do not fail the gate");

    let (code, text) = run_tool(&["top", old]);
    assert_eq!(code, 0);
    assert!(text.contains("functions:"), "{text}");

    let (code, text) = run_tool(&["flame", old]);
    assert_eq!(code, 0);
    assert!(text.contains("main;"), "{text}");

    // Usage errors exit 2.
    let (code, _) = run_tool(&["frobnicate"]);
    assert_eq!(code, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Multiplies every penalty-relevant integer under `sim` /
/// `penalty_by_edge` by 1.5 (rounding up), leaving structure intact.
fn scale_penalties(j: Json) -> Json {
    match j {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    let scaled = matches!(
                        k.as_str(),
                        "penalty_cycles"
                            | "sr_loads"
                            | "sr_stores"
                            | "save_restore_loads"
                            | "save_restore_stores"
                    );
                    if scaled {
                        match v {
                            Json::Int(n) => (k, Json::Int(n + (n + 1) / 2)),
                            other => (k, other),
                        }
                    } else {
                        (k, scale_penalties(v))
                    }
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(scale_penalties).collect()),
        other => other,
    }
}
