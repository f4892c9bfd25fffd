//! Prints the Table 2 reproduction: D = only 7 caller-saved registers,
//! E = only 7 callee-saved registers, vs the full-register-set -O2 base.
//!
//! Flags: `--small` (three smallest workloads), `--trace-json <dir>` (dump
//! one JSON compile trace per configuration).

use std::process::ExitCode;

use ipra_bench::{dump_config_traces, parse_table_args};
use ipra_driver::{table_row, Config};

fn main() -> ExitCode {
    let args = match parse_table_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("Table 2 reproduction — % reduction vs -O2 full register set");
    println!(
        "{:<10} | {:>7} {:>7} | {:>7} {:>7}",
        "program", "I.D", "I.E", "II.D", "II.E"
    );
    for w in args.workloads() {
        let module = ipra_workloads::compile_workload(w).expect("workload compiles");
        let configs = [Config::d(), Config::e()];
        let base = Config::o2_base();
        let row = table_row(w.name, &module, &base, &configs);
        println!(
            "{:<10} | {:>6.1}% {:>6.1}% | {:>6.1}% {:>6.1}%",
            row.workload, row.columns[0].1, row.columns[1].1, row.columns[0].2, row.columns[1].2
        );
        if let Some(dir) = &args.trace_json {
            let mut all = vec![base];
            all.extend(configs);
            if let Err(e) = dump_config_traces(dir, w.name, &module, &all) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
