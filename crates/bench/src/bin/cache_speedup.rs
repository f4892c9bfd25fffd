//! Measures the wall-clock effect of the incremental allocation cache:
//! for each workload, times a cold compile (empty cache), a warm compile
//! (everything replays) and an incremental compile after a one-function
//! edit, and writes the results as `BENCH_cache.json` at the repository
//! root.
//!
//! ```text
//! cache_speedup [--reps <r>] [--small] [--out <path>] [--history <path>]
//!   --reps <r>      timed repetitions per configuration (default 5; the
//!                   minimum over reps is reported to suppress scheduling
//!                   noise)
//!   --small         three smallest workloads only
//!   --out <p>       output path (default BENCH_cache.json)
//!   --history <p>   trajectory file to append one summary line to
//!                   (default BENCH_history.jsonl; `--history none` skips)
//! ```

use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use ipra_bench::{append_history, history_entry};

use ipra_core::ipra::compile_module;
use ipra_driver::Config;
use ipra_ir::Module;
use ipra_obs::json::Json;
use ipra_workloads::synth;

struct Row {
    name: String,
    funcs: usize,
    cold_us: u128,
    warm_us: u128,
    incr_us: u128,
    incr_misses: u64,
}

fn best_of(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_micros());
    }
    best
}

/// A no-interface-change edit: adds an unused named vreg to the first
/// non-main function. The vreg-name table feeds the body hash, so exactly
/// that function's cache key changes, while its allocation — and therefore
/// its exported summary — stays the same (the early-cutoff case).
fn edited_copy(module: &Module) -> Module {
    let mut m = module.clone();
    let fid = m
        .funcs
        .iter()
        .map(|(id, _)| id)
        .find(|&id| m.funcs[id].name != "main")
        .or_else(|| m.funcs.iter().map(|(id, _)| id).next())
        .expect("module has a function");
    m.funcs[fid].new_named_vreg("__bench_edit");
    m
}

fn main() -> ExitCode {
    let mut reps = 5usize;
    let mut small = false;
    let mut out_path = "BENCH_cache.json".to_string();
    let mut history = Some("BENCH_history.jsonl".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let ok = match a.as_str() {
            "--reps" => match args.next().and_then(|v| v.trim().parse().ok()) {
                Some(v) => {
                    reps = v;
                    true
                }
                None => false,
            },
            "--small" => {
                small = true;
                true
            }
            "--out" => match args.next() {
                Some(p) => {
                    out_path = p;
                    true
                }
                None => false,
            },
            "--history" => match args.next() {
                Some(p) => {
                    history = (p != "none").then_some(p);
                    true
                }
                None => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!(
                "usage: cache_speedup [--reps R] [--small] [--out PATH] [--history PATH|none]"
            );
            return ExitCode::FAILURE;
        }
    }

    let mut modules: Vec<(String, Module)> = ipra_workloads::all()
        .into_iter()
        .take(if small { 3 } else { usize::MAX })
        .map(|w| {
            let m = ipra_workloads::compile_workload(w).expect("workload compiles");
            (w.name.to_string(), m)
        })
        .collect();
    // A wide synthetic call DAG (255 functions): the best case for
    // caching, and the worst case for recompiling.
    modules.push(("tree-8x2".into(), synth::call_tree_program(7, 2, 8, 1)));

    let dir = std::env::temp_dir().join(format!("ipra-cache-bench-{}", std::process::id()));
    let base = Config::c();
    println!("incremental cache speedup — best of {reps} reps");
    println!(
        "{:<10} {:>6} | {:>10} {:>10} {:>10} | {:>8} {:>8}",
        "program", "funcs", "cold(us)", "warm(us)", "1-edit(us)", "warm-x", "edit-x"
    );

    let mut rows = Vec::new();
    for (name, module) in &modules {
        let cache_dir = dir.join(name);
        let mut cfg = base.clone();
        cfg.opts.cache_dir = Some(cache_dir.clone());

        // Cold: empty cache every rep (includes the write-back cost).
        let cold_us = best_of(reps, || {
            let _ = std::fs::remove_dir_all(&cache_dir);
            compile_module(module, &cfg.target, &cfg.opts);
        });
        // Warm: the cache is now populated; every rep replays everything.
        let warm_us = best_of(reps, || {
            compile_module(module, &cfg.target, &cfg.opts);
        });
        // Incremental: one function's body hash changes, the rest replays.
        // The cache is re-primed (untimed) from the *unedited* module each
        // rep, so the edited entry is never already present.
        let edited = edited_copy(module);
        let mut incr_us = u128::MAX;
        let mut incr_misses = 0;
        for _ in 0..reps {
            let _ = std::fs::remove_dir_all(&cache_dir);
            compile_module(module, &cfg.target, &cfg.opts);
            let t = Instant::now();
            let compiled = compile_module(&edited, &cfg.target, &cfg.opts);
            incr_us = incr_us.min(t.elapsed().as_micros());
            incr_misses = compiled.cache.misses;
        }

        println!(
            "{:<10} {:>6} | {:>10} {:>10} {:>10} | {:>7.2}x {:>7.2}x",
            name,
            module.funcs.len(),
            cold_us,
            warm_us,
            incr_us,
            cold_us as f64 / warm_us.max(1) as f64,
            cold_us as f64 / incr_us.max(1) as f64,
        );
        rows.push(Row {
            name: name.clone(),
            funcs: module.funcs.len(),
            cold_us,
            warm_us,
            incr_us,
            incr_misses,
        });
    }

    let cold: u128 = rows.iter().map(|r| r.cold_us).sum();
    let warm: u128 = rows.iter().map(|r| r.warm_us).sum();
    let incr: u128 = rows.iter().map(|r| r.incr_us).sum();
    let warm_speedup = cold as f64 / warm.max(1) as f64;
    println!(
        "{:<10} {:>6} | {:>10} {:>10} {:>10} | {:>7.2}x {:>7.2}x",
        "TOTAL",
        "",
        cold,
        warm,
        incr,
        warm_speedup,
        cold as f64 / incr.max(1) as f64
    );

    let total = Json::obj(vec![
        ("cold_us", Json::Int(cold as i64)),
        ("warm_us", Json::Int(warm as i64)),
        ("incremental_us", Json::Int(incr as i64)),
        ("warm_speedup", Json::Float(warm_speedup)),
    ]);
    let doc = Json::obj(vec![
        ("bench", Json::Str("cache_speedup".into())),
        ("reps", Json::Int(reps as i64)),
        ("total", total.clone()),
        (
            "programs",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::Str(r.name.clone())),
                            ("funcs", Json::Int(r.funcs as i64)),
                            ("cold_us", Json::Int(r.cold_us as i64)),
                            ("warm_us", Json::Int(r.warm_us as i64)),
                            ("incremental_us", Json::Int(r.incr_us as i64)),
                            ("incremental_misses", Json::Int(r.incr_misses as i64)),
                            (
                                "warm_speedup",
                                Json::Float(r.cold_us as f64 / r.warm_us.max(1) as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Err(e) = std::fs::write(&out_path, doc.render_pretty()) {
        eprintln!("{out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    if let Some(path) = history {
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        if let Err(e) = append_history(
            path.as_ref(),
            &history_entry("cache_speedup", unix_ms, total),
        ) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!("appended to {path}");
    }
    let _ = std::fs::remove_dir_all(&dir);

    if warm_speedup < 3.0 {
        eprintln!("warm speedup {warm_speedup:.2}x is below the 3x target");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
