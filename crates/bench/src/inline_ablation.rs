//! Three-leg inlining × IPRA ablation shared by the `inline_ablation`
//! binary and the `inline_golden` integration test.
//!
//! Per workload the legs are:
//!
//! 1. `off` — configuration C (`-O3` interprocedural allocation with
//!    shrink-wrap), inliner off: the paper's best column and this
//!    ablation's baseline.
//! 2. `inline` — configuration `inline/A` (`-O2` intra-procedural
//!    allocation plus the profile-guided inliner): what inlining buys
//!    *without* interprocedural save/restore placement.
//! 3. `inline+IPRA` — configuration `inline/C`: both together. The
//!    budget gate pins this leg's total register-usage penalty at or
//!    below leg 1's — removing calls must never add save/restore
//!    traffic when IPRA is also on.
//!
//! Both inline legs are profile-guided the honest way: a training run
//! under the baseline configuration collects per-block execution counts,
//! and those counts rank the call sites (and feed the allocator's
//! priority function) in the feedback compile. The training module is
//! compiled without inlining, so its block numbering is exactly the
//! pre-inline prepared-module order the inliner consumes.

use ipra_driver::Config;
use ipra_machine::CostModel;
use ipra_obs::json::Json;
use ipra_workloads::Workload;

/// One leg's measurements for one workload.
#[derive(Clone, Debug)]
pub struct LegResult {
    /// Leg label (`off`, `inline`, `inline+IPRA`).
    pub leg: String,
    /// Configuration name the leg compiled under.
    pub config: String,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Scalar loads + stores.
    pub scalar_mem: u64,
    /// Save/restore penalty cycles (Eqs 3.5/3.6 summed over all edges).
    pub penalty_cycles: u64,
    /// Direct call sites the inliner looked at (0 on the off leg).
    pub sites_considered: u64,
    /// Call sites actually inlined.
    pub sites_inlined: u64,
    /// Candidates refused for budget exhaustion alone.
    pub budget_stops: u64,
    /// Program output, for cross-leg equality checking.
    pub output: Vec<i64>,
}

/// All three legs for one workload.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Workload name.
    pub workload: String,
    /// `off`, `inline`, `inline+IPRA`, in that order.
    pub legs: Vec<LegResult>,
}

/// The three ablation configurations, in leg order.
pub fn ablation_configs() -> Vec<(&'static str, Config)> {
    vec![
        ("off", Config::c()),
        ("inline", Config::inline_a()),
        ("inline+IPRA", Config::inline_c()),
    ]
}

/// Per-`[function][block]` execution counts from a training run.
type BlockProfile = Vec<Vec<u64>>;

fn run_leg(
    leg: &str,
    module: &ipra_ir::Module,
    config: &Config,
    profile: Option<&[Vec<u64>]>,
    want_profile: bool,
) -> Result<(LegResult, Option<BlockProfile>), String> {
    let compiled =
        ipra_core::ipra::compile_module_with_profile(module, &config.target, &config.opts, profile);
    let mut sim_opts = ipra_sim::SimOptions::for_target(&config.target.regs)
        .check_preservation(compiled.clobber_masks.clone());
    if want_profile {
        sim_opts = sim_opts.with_block_profile();
    }
    let r = ipra_sim::run(&compiled.mmodule, &config.target.regs, &sim_opts)
        .map_err(|t| format!("[{leg}/{}] trapped: {t}", config.name))?;
    let result = LegResult {
        leg: leg.to_string(),
        config: config.name.clone(),
        cycles: r.stats.cycles,
        scalar_mem: r.stats.scalar_mem(),
        penalty_cycles: r.stats.penalty_cycles(&CostModel::default()),
        sites_considered: compiled.inline.sites_considered,
        sites_inlined: compiled.inline.inlined,
        budget_stops: compiled.inline.budget_stops,
        output: r.output,
    };
    Ok((result, r.block_profile))
}

/// Runs the full three-leg ablation over `workloads`.
///
/// # Errors
///
/// Returns an error on a simulator trap or on a cross-leg output
/// mismatch — both indicate an inliner or allocator bug, and the caller
/// (binary or test) must fail loudly.
pub fn run_ablation(workloads: &[Workload]) -> Result<Vec<AblationRow>, String> {
    let mut corpus = Vec::new();
    for w in workloads {
        let module =
            ipra_frontend::compile(w.source).map_err(|e| format!("[{}] frontend: {e}", w.name))?;
        corpus.push((w.name.to_string(), module));
    }
    run_ablation_modules(&corpus, None)
}

/// The ablation over already-compiled modules — the entry point the
/// `inline_golden` test uses on its mixed fixture/generator corpus. When
/// `cache_dir` is given, every compile goes through the incremental
/// allocation cache under `<dir>/<workload>` (the three legs share the
/// directory; their config fingerprints keep the entries apart), so a
/// second run over the same directory measures the warm path.
///
/// # Errors
///
/// Same contract as [`run_ablation`].
pub fn run_ablation_modules(
    corpus: &[(String, ipra_ir::Module)],
    cache_dir: Option<&std::path::Path>,
) -> Result<Vec<AblationRow>, String> {
    let mut rows = Vec::new();
    for (name, module) in corpus {
        let mut legs: Vec<LegResult> = Vec::new();
        let mut profile: Option<Vec<Vec<u64>>> = None;
        for (i, (leg, mut config)) in ablation_configs().into_iter().enumerate() {
            if let Some(dir) = cache_dir {
                config.opts.cache_dir = Some(dir.join(name));
            }
            // Leg 0 doubles as the training run; its block profile feeds
            // both inline legs.
            let (result, trained) = run_leg(leg, module, &config, profile.as_deref(), i == 0)?;
            if i == 0 {
                profile = trained;
            } else if result.output != legs[0].output {
                return Err(format!("[{name}/{leg}] output differs from the off leg"));
            }
            legs.push(result);
        }
        rows.push(AblationRow {
            workload: name.clone(),
            legs,
        });
    }
    Ok(rows)
}

fn sum(rows: &[AblationRow], leg: usize, f: impl Fn(&LegResult) -> u64) -> u64 {
    rows.iter().map(|r| f(&r.legs[leg])).sum()
}

/// Renders the ablation as the `BENCH_inline.json` document: one row per
/// workload plus the `total` object `bench --check-budgets` gates on.
/// Deterministic: no timestamps, fixed key order, fixed leg order.
pub fn ablation_to_json(rows: &[AblationRow]) -> Json {
    let row_docs = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("workload", Json::Str(r.workload.clone())),
                (
                    "legs",
                    Json::Arr(
                        r.legs
                            .iter()
                            .map(|l| {
                                Json::obj(vec![
                                    ("leg", Json::Str(l.leg.clone())),
                                    ("config", Json::Str(l.config.clone())),
                                    ("cycles", Json::Int(l.cycles as i64)),
                                    ("scalar_mem", Json::Int(l.scalar_mem as i64)),
                                    ("penalty_cycles", Json::Int(l.penalty_cycles as i64)),
                                    ("sites_considered", Json::Int(l.sites_considered as i64)),
                                    ("sites_inlined", Json::Int(l.sites_inlined as i64)),
                                    ("budget_stops", Json::Int(l.budget_stops as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let total = Json::obj(vec![
        ("workloads", Json::Int(rows.len() as i64)),
        (
            "penalty_off",
            Json::Int(sum(rows, 0, |l| l.penalty_cycles) as i64),
        ),
        (
            "penalty_inline",
            Json::Int(sum(rows, 1, |l| l.penalty_cycles) as i64),
        ),
        (
            "penalty_inline_ipra",
            Json::Int(sum(rows, 2, |l| l.penalty_cycles) as i64),
        ),
        ("cycles_off", Json::Int(sum(rows, 0, |l| l.cycles) as i64)),
        (
            "cycles_inline_ipra",
            Json::Int(sum(rows, 2, |l| l.cycles) as i64),
        ),
        (
            "sites_considered",
            Json::Int(sum(rows, 2, |l| l.sites_considered) as i64),
        ),
        (
            "sites_inlined",
            Json::Int(sum(rows, 2, |l| l.sites_inlined) as i64),
        ),
        (
            "budget_stops",
            Json::Int(sum(rows, 2, |l| l.budget_stops) as i64),
        ),
    ]);
    Json::obj(vec![
        ("bench", Json::Str("inline_ablation".into())),
        ("rows", Json::Arr(row_docs)),
        ("total", total),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_ablation_is_sound_and_gateable() {
        let workloads: Vec<_> = ipra_workloads::all().into_iter().take(2).collect();
        let rows = run_ablation(&workloads).unwrap();
        assert_eq!(rows.len(), 2);
        let doc = ablation_to_json(&rows);
        let total = doc.get("total").unwrap();
        let g = |k: &str| total.get(k).and_then(Json::as_i64).unwrap();
        assert!(g("penalty_off") > 0, "baseline pays some penalty");
        assert!(
            g("penalty_inline_ipra") <= g("penalty_off"),
            "the budget gate's invariant must hold on the small corpus too"
        );
        assert!(g("sites_considered") > 0);
    }

    #[test]
    fn off_leg_reports_no_inliner_activity() {
        let workloads: Vec<_> = ipra_workloads::all().into_iter().take(1).collect();
        let rows = run_ablation(&workloads).unwrap();
        assert_eq!(rows[0].legs[0].sites_considered, 0);
        assert_eq!(rows[0].legs[0].sites_inlined, 0);
    }
}
