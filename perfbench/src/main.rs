//! The repository's benchmark: end-to-end metrics of the ipra compile
//! path on four workloads, or (with `--trace 1`) per-layer metrics of the
//! same inputs. See `perfbench/README.md` for what each workload and
//! metric measures.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod daemon;
mod gen;
mod layers;
mod measure;
mod oneshot;

use std::process::ExitCode;

use ipra_bench::alloc_meter::{self, CountingAlloc};
use ipra_obs::json::Json;

use check::{Counts, Ledger};
use layers::Layers;
use measure::{floored, median, tail, Stamp, FLOOR_QUANTILE};

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 4] = [
    "paper-corpus",
    "wide-frames",
    "daemon-mixed",
    "edit-rebuild",
];

/// Set-ups per run: at least `MIN_SETUPS`, and more until they have
/// taken `MIN_SETUP_S` CPU seconds in total, so a short set-up is timed
/// often enough for a steady median. `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MIN_SETUP_S: f64 = 1.0;
const MAX_SETUPS: usize = 200;

/// Counts live heap bytes for `peak_heap_mb`. `getrusage`'s peak RSS
/// would not do: it keeps the parent's peak across `exec`. The counters
/// are process-wide, so a one-shot workload measures each compile on its
/// own (which resets the process-wide peak) and `daemon-mixed` measures
/// the whole process.
#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

/// Environment variables that would change the program being measured.
const PINNED_ENV: [&str; 3] = ["IPRA_JOBS", "IPRA_CACHE", "IPRA_INLINE"];

/// A workload after set-up.
pub trait Workload {
    /// Digest of every generated input, for the determinism self-test.
    fn inputs_digest(&self) -> u64;
    /// The exact workload parameters, recorded in the output.
    fn params(&self) -> Vec<(&'static str, Json)>;
    /// Measures for about `seconds` seconds.
    fn run(&mut self, seconds: f64, trace: bool) -> Measured;
}

/// One measured operation. Times are process CPU milliseconds (see
/// [`measure::cpu_ms`]); the wall time is kept for the record only.
pub struct Op {
    /// The program the operation compiled; its samples share a floor
    /// (see [`measure::FLOOR_QUANTILE`]).
    pub key: usize,
    /// Source text to machine code.
    pub compile_ms: f64,
    /// The whole operation as its caller sees it.
    pub request_ms: f64,
    pub wall_ms: f64,
}

/// What one run measured.
#[derive(Default)]
pub struct Measured {
    pub ops: Vec<Op>,
    /// Wall seconds the measured operations took (one-shot) or the
    /// traffic window lasted (daemon).
    pub busy_s: f64,
    /// Counts of the workload's program set, identical on every pass.
    pub counts: Option<Counts>,
    /// Largest live-heap high-water of one compile, when the workload
    /// measures compiles one at a time.
    pub compile_heap_bytes: Option<u64>,
    pub ledger: Ledger,
    pub layers: Option<Layers>,
}

impl Measured {
    /// Records one measured operation of program `key`.
    pub fn note_op(&mut self, key: usize, compile_ms: f64, request_ms: f64, wall_ms: f64) {
        self.ops.push(Op {
            key,
            compile_ms,
            request_ms,
            wall_ms,
        });
    }

    pub fn note_compile_heap(&mut self, peak_bytes: u64) {
        self.compile_heap_bytes = Some(self.compile_heap_bytes.unwrap_or(0).max(peak_bytes));
    }

    /// Records one pass's counts; every pass must repeat the first.
    pub fn check_counts(&mut self, c: Counts) {
        match self.counts {
            None => self.counts = Some(c),
            Some(first) => self.ledger.record(
                (first != c).then(|| format!("counts changed between passes: {first:?} vs {c:?}")),
            ),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload `{value}`; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => seconds = Some(s),
                _ => return Err(format!("bad seconds `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad trace `{value}`; 0 or 1")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn setup(args: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "paper-corpus" => Box::new(oneshot::CompileRun::paper_corpus(args.seed)?),
        "wide-frames" => Box::new(oneshot::CompileRun::wide_frames(args.seed)?),
        "daemon-mixed" => Box::new(daemon::DaemonMixed::new(args.seed)?),
        "edit-rebuild" => Box::new(oneshot::EditRebuild::new(args.seed)?),
        other => unreachable!("parse_args accepted `{other}`"),
    })
}

/// The last of several set-ups, with every set-up's CPU and wall seconds
/// and input digest.
struct SetUp {
    workload: Box<dyn Workload>,
    seconds: Vec<f64>,
    wall_seconds: Vec<f64>,
    digests: Vec<u64>,
}

/// Sets the workload up repeatedly (see [`MIN_SETUPS`]) and keeps the
/// last set-up.
fn set_up(args: &Args) -> Result<SetUp, String> {
    let mut seconds = Vec::new();
    let mut wall_seconds = Vec::new();
    let mut digests = Vec::new();
    let mut current: Option<Box<dyn Workload>> = None;
    while seconds.len() < MIN_SETUPS
        || (seconds.iter().sum::<f64>() < MIN_SETUP_S && seconds.len() < MAX_SETUPS)
    {
        drop(current.take());
        let t = Stamp::now();
        let w = setup(args).map_err(|e| format!("set-up failed: {e}"))?;
        seconds.push(t.cpu_ms() / 1e3);
        wall_seconds.push(t.wall_ms() / 1e3);
        digests.push(w.inputs_digest());
        current = Some(w);
    }
    Ok(SetUp {
        workload: current.expect("at least one set-up"),
        seconds,
        wall_seconds,
        digests,
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Float(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::FAILURE;
        }
    };
    // A caller's shell must not change the program being measured. No
    // other thread exists yet.
    for v in PINNED_ENV {
        std::env::remove_var(v);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (result, heap) = alloc_meter::measure(|| {
        set_up(&args).map(|mut s| {
            let m = s.workload.run(args.seconds, args.trace);
            (s, m)
        })
    });
    let (
        SetUp {
            workload: w,
            seconds: setup_s,
            wall_seconds: setup_wall_s,
            digests,
        },
        mut m,
    ) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Determinism self-test: every set-up generated the same bytes.
    m.ledger.record(
        (digests.iter().any(|d| *d != digests[0]))
            .then(|| "inputs differ between set-ups".to_string()),
    );

    let counts = m.counts.unwrap_or_default();
    // Every operation at its program's floor (see `FLOOR_QUANTILE`).
    let at_floor =
        |time: fn(&Op) -> f64| floored(&m.ops.iter().map(|o| (o.key, time(o))).collect::<Vec<_>>());
    let compile_ms = at_floor(|o| o.compile_ms);
    let request_ms = at_floor(|o| o.request_ms);
    let wall_ms: Vec<f64> = m.ops.iter().map(|o| o.wall_ms).collect();
    let (compile_tail, compile_pct, compile_n) = tail(&compile_ms);
    let end_to_end: Vec<(&str, f64, &str)> = vec![
        ("setup_s", median(&setup_s), "s"),
        ("compile_cpu_ms_p50", median(&compile_ms), "ms"),
        ("compile_cpu_ms_tail", compile_tail, "ms"),
        ("request_cpu_ms_p50", median(&request_ms), "ms"),
        ("sim_cycles", counts.sim_cycles as f64, "count"),
        ("penalty_cycles", counts.penalty_cycles as f64, "count"),
        ("code_insts", counts.code_insts as f64, "count"),
        (
            "peak_heap_mb",
            m.compile_heap_bytes.unwrap_or(heap.peak_bytes) as f64 / (1u64 << 20) as f64,
            "MiB",
        ),
    ];
    let failed_ratio = m.ledger.failed as f64 / m.ledger.attempted.max(1) as f64;

    let tail_info = |pct: f64, n: usize| {
        Json::obj(vec![
            ("percentile", Json::Float(pct)),
            ("samples", Json::Int(n as i64)),
        ])
    };
    let info = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(nproc as i64)),
        (
            "effective_jobs",
            Json::Int(ipra_core::AllocOptions::o3().effective_jobs() as i64),
        ),
        (
            "pinned_env_unset",
            Json::Arr(
                PINNED_ENV
                    .iter()
                    .map(|v| Json::Str(v.to_string()))
                    .collect(),
            ),
        ),
        ("inputs_digest", Json::Str(format!("{:016x}", digests[0]))),
        (
            "setup_s_each",
            Json::Arr(setup_s.iter().map(|s| Json::Float(*s)).collect()),
        ),
        ("floor_quantile", Json::Float(FLOOR_QUANTILE)),
        (
            "programs_timed",
            Json::Int(
                m.ops
                    .iter()
                    .map(|o| o.key)
                    .collect::<std::collections::HashSet<_>>()
                    .len() as i64,
            ),
        ),
        ("compile_cpu_ms_tail", tail_info(compile_pct, compile_n)),
        (
            "wall",
            Json::obj(vec![
                ("setup_s", Json::Float(median(&setup_wall_s))),
                (
                    "programs_per_s",
                    Json::Float(wall_ms.len() as f64 / m.busy_s.max(1e-9)),
                ),
                ("request_ms_p50", Json::Float(median(&wall_ms))),
                ("request_ms_tail", Json::Float(tail(&wall_ms).0)),
            ]),
        ),
        ("failed_ratio", Json::Float(failed_ratio)),
        (
            "params",
            Json::Obj(
                w.params()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", Json::obj(vec![("perfbench", info)]).render());

    for msg in &m.ledger.messages {
        eprintln!("perfbench: FAILED {msg}");
    }
    let shown: Vec<(&str, f64, &str)> = match &m.layers {
        Some(l) => l.metrics(),
        None => end_to_end,
    };
    for (name, value, unit) in &shown {
        println!("{name:<26} {value:>16.4} {unit}");
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(m.ledger.failed == 0)),
        ("attempted", Json::Int(m.ledger.attempted as i64)),
        ("failed", Json::Int(m.ledger.failed as i64)),
        (
            "metrics",
            Json::Obj(
                shown
                    .iter()
                    .map(|(n, v, u)| (n.to_string(), metric(*v, u)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
