//! `bench` — performance-budget gate over the committed benchmark
//! artifacts.
//!
//! ```text
//! bench --check-budgets [--cache-file <p>]
//!       [--allocs-file <p>] [--service-file <p>] [--convsearch-file <p>]
//!       [--inline-file <p>] [--history <p>]
//!       [--warm-floor <x>] [--allocs-floor <x>]
//!       [--service-throughput-floor <x>] [--service-warm-floor <x>]
//!       [--service-p99-ceiling-us <n>]
//!   --check-budgets    verify the artifacts against the budget floors
//!   --cache-file <p>   cache results (default BENCH_cache.json)
//!   --allocs-file <p>  allocation results (default BENCH_allocs.json;
//!                      `none` skips the allocation budget)
//!   --service-file <p> compile-service results (default
//!                      BENCH_service.json; `none` skips)
//!   --convsearch-file <p>  convention-search report (default
//!                      BENCH_convsearch.json; `none` skips). Gated on
//!                      zero failures, every point passing both the
//!                      static verifier and the interpreter oracle, and
//!                      at least 12 points per register-file shape
//!   --inline-file <p>  inlining × IPRA ablation (default
//!                      BENCH_inline.json; `none` skips). Gated on the
//!                      inline+IPRA leg's total penalty cycles staying at
//!                      or below the inline-off leg's, and on the inliner
//!                      having actually fired
//!   --history <p>      trajectory file whose lines must all parse
//!                      (default BENCH_history.jsonl; `none` skips)
//!   --warm-floor <x>   minimum warm-cache compile speedup (default 3.0)
//!   --allocs-floor <x> minimum warm-recompile allocation reduction as a
//!                      fraction (default 0.5)
//!   --service-throughput-floor <x>  minimum daemon throughput in
//!                      requests/s (default 5.0)
//!   --service-warm-floor <x>  minimum warm-hit ratio over warm-eligible
//!                      daemon requests (default 0.25)
//!   --service-p99-ceiling-us <n>  maximum p99 request latency in
//!                      microseconds (default 2000000 — generous so the
//!                      gate trips on collapse, not scheduler jitter)
//! ```
//!
//! Exits nonzero when a budget is violated or an artifact is missing or
//! malformed, so CI can run it as a hard gate after refreshing the
//! artifacts with `cache_speedup --small` / `recompile_allocs --small` /
//! `service_bench --small`.

use std::process::ExitCode;

use ipra_bench::read_history;
use ipra_obs::json::{parse_bytes, Json};

fn usage() -> &'static str {
    "usage: bench --check-budgets [--cache-file P] \
     [--allocs-file P|none] [--service-file P|none] \
     [--convsearch-file P|none] [--inline-file P|none] [--history P|none] \
     [--warm-floor X] [--allocs-floor X] \
     [--service-throughput-floor X] [--service-warm-floor X] \
     [--service-p99-ceiling-us N]"
}

/// Loads an artifact and extracts `total.<key>` as a float.
fn total_of(path: &str, key: &str) -> Result<f64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    doc.get("total")
        .and_then(|t| t.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}: no `total.{key}` member"))
}

fn real_main() -> Result<ExitCode, String> {
    let mut check = false;
    let mut cache_file = "BENCH_cache.json".to_string();
    let mut allocs_file = Some("BENCH_allocs.json".to_string());
    let mut service_file = Some("BENCH_service.json".to_string());
    let mut convsearch_file = Some("BENCH_convsearch.json".to_string());
    let mut inline_file = Some("BENCH_inline.json".to_string());
    let mut history = Some("BENCH_history.jsonl".to_string());
    let mut warm_floor = 3.0f64;
    let mut allocs_floor = 0.5f64;
    let mut service_throughput_floor = 5.0f64;
    let mut service_warm_floor = 0.25f64;
    let mut service_p99_ceiling_us = 2_000_000.0f64;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check-budgets" => check = true,
            "--cache-file" => cache_file = args.next().ok_or_else(|| usage().to_string())?,
            "--allocs-file" => {
                let p = args.next().ok_or_else(|| usage().to_string())?;
                allocs_file = (p != "none").then_some(p);
            }
            "--service-file" => {
                let p = args.next().ok_or_else(|| usage().to_string())?;
                service_file = (p != "none").then_some(p);
            }
            "--convsearch-file" => {
                let p = args.next().ok_or_else(|| usage().to_string())?;
                convsearch_file = (p != "none").then_some(p);
            }
            "--inline-file" => {
                let p = args.next().ok_or_else(|| usage().to_string())?;
                inline_file = (p != "none").then_some(p);
            }
            "--history" => {
                let p = args.next().ok_or_else(|| usage().to_string())?;
                history = (p != "none").then_some(p);
            }
            "--warm-floor" => {
                warm_floor = args
                    .next()
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or("--warm-floor needs a number")?
            }
            "--allocs-floor" => {
                allocs_floor = args
                    .next()
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or("--allocs-floor needs a number")?
            }
            "--service-throughput-floor" => {
                service_throughput_floor = args
                    .next()
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or("--service-throughput-floor needs a number")?
            }
            "--service-warm-floor" => {
                service_warm_floor = args
                    .next()
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or("--service-warm-floor needs a number")?
            }
            "--service-p99-ceiling-us" => {
                service_p99_ceiling_us = args
                    .next()
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or("--service-p99-ceiling-us needs a number")?
            }
            "-h" | "--help" => return Err(usage().to_string()),
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    if !check {
        return Err(usage().to_string());
    }

    let mut violations = 0;
    let mut gate = |what: &str, value: f64, floor: f64, unit: &str| {
        let ok = value >= floor;
        println!(
            "{} {what}: {value:.2}{unit} (floor {floor:.2}{unit})",
            if ok { "ok  " } else { "FAIL" }
        );
        if !ok {
            violations += 1;
        }
    };

    gate(
        "warm-cache speedup",
        total_of(&cache_file, "warm_speedup")?,
        warm_floor,
        "x",
    );
    if let Some(path) = &allocs_file {
        gate(
            "warm-recompile allocation reduction",
            total_of(path, "reduction")?,
            allocs_floor,
            "",
        );
    }
    if let Some(path) = &service_file {
        gate(
            "service throughput",
            total_of(path, "throughput_rps")?,
            service_throughput_floor,
            " req/s",
        );
        gate(
            "service warm-hit ratio",
            total_of(path, "warm_hit_ratio")?,
            service_warm_floor,
            "",
        );
        let p99 = total_of(path, "p99_us")?;
        let ok = p99 <= service_p99_ceiling_us;
        println!(
            "{} service p99 latency: {p99:.0}us (ceiling {service_p99_ceiling_us:.0}us)",
            if ok { "ok  " } else { "FAIL" }
        );
        if !ok {
            violations += 1;
        }
    }

    if let Some(path) = &convsearch_file {
        // Correctness floors, not perf floors: the committed penalty
        // surface must have zero failing point/program pairs, every point
        // verified and interpreter-matched, and Table-2-style coverage of
        // at least 12 points per register-file shape.
        let points = total_of(path, "points")?;
        let passing = total_of(path, "passing_points")?;
        let failures = total_of(path, "failures")?;
        let min_pts = total_of(path, "min_points_per_shape")?;
        let mut conv_gate = |what: &str, ok: bool, detail: String| {
            println!("{} {what}: {detail}", if ok { "ok  " } else { "FAIL" });
            if !ok {
                violations += 1;
            }
        };
        conv_gate(
            "convsearch failures",
            failures == 0.0,
            format!("{failures:.0} (must be 0)"),
        );
        conv_gate(
            "convsearch verified points",
            points > 0.0 && passing == points,
            format!("{passing:.0}/{points:.0} points pass verify + interp"),
        );
        conv_gate(
            "convsearch shape coverage",
            min_pts >= 12.0,
            format!("{min_pts:.0} points on the sparsest shape (floor 12)"),
        );
    }

    if let Some(path) = &inline_file {
        // Correctness floor: inlining a call site removes its
        // save/restore obligation entirely, so with IPRA also on the
        // total register-usage penalty must not exceed the no-inlining
        // baseline's — if it does, the inliner is creating pressure the
        // allocator can't recover.
        let off = total_of(path, "penalty_off")?;
        let with = total_of(path, "penalty_inline_ipra")?;
        let inlined = total_of(path, "sites_inlined")?;
        let mut inline_gate = |what: &str, ok: bool, detail: String| {
            println!("{} {what}: {detail}", if ok { "ok  " } else { "FAIL" });
            if !ok {
                violations += 1;
            }
        };
        inline_gate(
            "inline+IPRA penalty",
            with <= off,
            format!("{with:.0} cycles vs {off:.0} inline-off (must not exceed)"),
        );
        inline_gate(
            "inline sites",
            inlined > 0.0,
            format!("{inlined:.0} sites inlined (must be > 0)"),
        );
    }

    if let Some(path) = &history {
        let entries = read_history(path.as_ref())?;
        println!(
            "ok   history: {} well-formed entries in {path}",
            entries.len()
        );
    }

    if violations > 0 {
        eprintln!("{violations} budget violation(s)");
        return Ok(ExitCode::FAILURE);
    }
    println!("all perf budgets hold");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
