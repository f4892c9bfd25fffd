//! Bench crate: table/figure harnesses live in benches/ and src/bin/.
//!
//! The table binaries share a tiny CLI:
//!
//! ```text
//! table1 [--small] [--trace-json <dir>]
//!   --small             only the three smallest workloads (CI smoke runs)
//!   --trace-json <dir>  also run each configuration traced and write one
//!                       JSON compile trace per (workload, configuration)
//!                       to <dir>/<workload>-<config>.json
//! ```

pub mod alloc_meter;
pub mod inline_ablation;

use std::path::{Path, PathBuf};

use ipra_driver::{compile_and_run_traced, Config};
use ipra_ir::Module;
use ipra_obs::json::Json;
use ipra_workloads::Workload;

/// Options shared by the `table1`/`table2` binaries.
#[derive(Clone, Debug, Default)]
pub struct TableArgs {
    /// Restrict the run to the three smallest workloads (CI smoke mode).
    pub small: bool,
    /// Directory to dump one JSON compile trace per configuration into.
    pub trace_json: Option<PathBuf>,
}

/// Parses the shared table-binary flags.
///
/// # Errors
///
/// Returns a usage message on unknown flags or missing operands.
pub fn parse_table_args(args: impl Iterator<Item = String>) -> Result<TableArgs, String> {
    const USAGE: &str = "usage: table [--small] [--trace-json DIR]";
    let mut parsed = TableArgs::default();
    let mut args = args;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--small" => parsed.small = true,
            "--trace-json" => {
                let dir = args.next().ok_or("--trace-json needs a directory")?;
                parsed.trace_json = Some(PathBuf::from(dir));
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

impl TableArgs {
    /// The workload list this run covers: all thirteen, or the three
    /// smallest under `--small`.
    pub fn workloads(&self) -> Vec<Workload> {
        let all = ipra_workloads::all();
        if self.small {
            // `all()` is ordered by increasing size, so the small corpus is
            // just the head of the list.
            all.into_iter().take(3).collect()
        } else {
            all
        }
    }
}

/// Runs every configuration traced and writes one pretty-printed JSON
/// compile trace per configuration to `dir/<workload>-<config>.json`.
///
/// # Errors
///
/// Returns an error string on I/O failure or a simulator trap (the latter
/// indicates a compiler bug, like [`ipra_driver::table_row`]'s panics).
pub fn dump_config_traces(
    dir: &Path,
    workload: &str,
    module: &Module,
    configs: &[Config],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for c in configs {
        let m = compile_and_run_traced(module, c)
            .map_err(|t| format!("[{workload}/{}] trapped: {t}", c.name))?;
        let trace = m.trace.expect("traced run carries a trace");
        let path = dir.join(format!("{workload}-{}.json", c.name));
        std::fs::write(&path, trace.to_json().render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Builds one benchmark-trajectory entry: the bench name, a Unix
/// timestamp in milliseconds, and the run's `total` object. One of these
/// per speedup-bench run is appended to `BENCH_history.jsonl`, giving the
/// budget checker (and humans) a performance trajectory across commits.
pub fn history_entry(bench: &str, unix_ms: u128, total: Json) -> Json {
    Json::obj(vec![
        ("bench", Json::Str(bench.into())),
        ("unix_ms", Json::Int(unix_ms.min(i64::MAX as u128) as i64)),
        ("total", total),
    ])
}

/// Appends one entry to a JSON-lines history file, creating it if absent.
/// Each line is a compact, self-contained JSON document.
///
/// # Errors
///
/// Returns a message on I/O failure.
pub fn append_history(path: &Path, entry: &Json) -> Result<(), String> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{}", entry.render()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a JSON-lines history file back as parsed entries, newest last.
///
/// # Errors
///
/// Returns a message on I/O failure or if any line fails to parse — a
/// corrupt history should fail the budget check loudly, not silently
/// shorten the trajectory.
pub fn read_history(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            ipra_obs::json::parse(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> TableArgs {
        parse_table_args(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn history_appends_and_reads_back_in_order() {
        let path = std::env::temp_dir().join(format!("ipra-hist-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        for (i, name) in ["cache_speedup", "recompile_allocs"].iter().enumerate() {
            let e = history_entry(
                name,
                1_700_000_000_000 + i as u128,
                Json::obj(vec![("speedup", Json::Float(3.5))]),
            );
            append_history(&path, &e).unwrap();
        }
        let entries = read_history(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0].get("bench").unwrap().as_str(),
            Some("cache_speedup")
        );
        assert_eq!(
            entries[1]
                .get("total")
                .unwrap()
                .get("speedup")
                .unwrap()
                .as_f64(),
            Some(3.5)
        );
        // A corrupt line is an error, not a shorter history.
        std::fs::write(&path, "{\"ok\": true}\nnot json\n").unwrap();
        assert!(read_history(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn defaults_are_full_corpus_no_traces() {
        let a = parse(&[]);
        assert!(!a.small);
        assert!(a.trace_json.is_none());
        assert_eq!(a.workloads().len(), 13);
    }

    #[test]
    fn small_selects_head_of_corpus() {
        let a = parse(&["--small"]);
        let names: Vec<_> = a.workloads().iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["nim", "map", "calcc"]);
    }

    #[test]
    fn trace_json_parses() {
        let a = parse(&["--trace-json", "out/traces"]);
        assert_eq!(a.trace_json.as_deref(), Some(Path::new("out/traces")));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(parse_table_args(["--frobnicate".to_string()].into_iter()).is_err());
        assert!(parse_table_args(["--jobs".to_string(), "4".to_string()].into_iter()).is_err());
    }

    #[test]
    fn dump_writes_one_trace_per_config() {
        let module = ipra_frontend::compile(
            "fn id(x: int) -> int { return x; } fn main() { print(id(7)); }",
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("ipra-bench-trace-{}", std::process::id()));
        dump_config_traces(&dir, "demo", &module, &[Config::o2_base(), Config::c()]).unwrap();
        for name in ["demo-base.json", "demo-C.json"] {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            assert!(text.contains("\"functions\""), "{name} looks like a trace");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
