//! `inline_ablation` — the three-leg inlining × IPRA ablation.
//!
//! ```text
//! inline_ablation [--small] [--out <path>] [--history <path>]
//!   --small        only the three smallest workloads (CI smoke runs)
//!   --out <path>   artifact path (default BENCH_inline.json)
//!   --history <p>  trajectory file to append one summary line to
//!                  (default BENCH_history.jsonl; `--history none` skips)
//! ```
//!
//! Runs every workload under `off` (configuration C, no inlining),
//! `inline` (`inline/A`) and `inline+IPRA` (`inline/C`) with a training
//! run feeding both inline legs, prints a per-workload table, writes the
//! deterministic `BENCH_inline.json` artifact `bench --check-budgets`
//! gates on, and appends a trajectory entry to `BENCH_history.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use ipra_bench::inline_ablation::{ablation_to_json, run_ablation};
use ipra_bench::{append_history, history_entry};

fn usage() -> &'static str {
    "usage: inline_ablation [--small] [--out PATH] [--history PATH|none]"
}

fn real_main() -> Result<(), String> {
    let mut small = false;
    let mut out = PathBuf::from("BENCH_inline.json");
    let mut history = Some("BENCH_history.jsonl".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--small" => small = true,
            "--out" => out = PathBuf::from(args.next().ok_or("--out needs a path")?),
            "--history" => {
                let p = args.next().ok_or("--history needs a path")?;
                history = (p != "none").then_some(p);
            }
            "-h" | "--help" => return Err(usage().to_string()),
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }

    let workloads = {
        let all = ipra_workloads::all();
        if small {
            all.into_iter().take(3).collect::<Vec<_>>()
        } else {
            all
        }
    };

    let rows = run_ablation(&workloads)?;
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>7} {:>7}",
        "workload", "penalty-off", "penalty-inl", "penalty-i+I", "sites", "stops"
    );
    for r in &rows {
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>7} {:>7}",
            r.workload,
            r.legs[0].penalty_cycles,
            r.legs[1].penalty_cycles,
            r.legs[2].penalty_cycles,
            r.legs[2].sites_inlined,
            r.legs[2].budget_stops,
        );
    }

    let doc = ablation_to_json(&rows);
    std::fs::write(&out, doc.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());

    if let Some(history) = history {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let total = doc.get("total").cloned().expect("artifact carries total");
        append_history(
            history.as_ref(),
            &history_entry("inline_ablation", unix_ms, total),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
