//! Command line of both binaries.

use std::path::PathBuf;
use std::process::ExitCode;

use radar_cli::Parsed;

use crate::rep::RepOptions;
use crate::workloads::{find, Workload};

const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--quick] [--out FILE]      every workload, result file
       benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one contract run
       benchmark/run.sh compare A.json B.json                  apply the end-to-end bounds
       benchmark/run.sh contract-json                          print BENCHMARK.json from the tables
(internal: child --workload W --seed N --duration D [--profile] [--setup-only];
           layers --workload W --seed N --scale X)";

fn workload(parsed: &Parsed) -> Result<&'static Workload, String> {
    let name = parsed.get("workload").ok_or("--workload is required")?;
    find(name).ok_or_else(|| {
        let known: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })
}

fn dispatch(args: &[&str]) -> Result<bool, String> {
    let options = [
        "workload", "seed", "seconds", "trace", "duration", "scale", "out",
    ];
    let switches = ["quick", "profile", "setup-only", "help"];
    let parsed = Parsed::parse(args, &options, &switches).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        println!("{USAGE}");
        return Ok(true);
    }
    let seed = parsed
        .get_parsed("seed", 1u64, "an integer seed")
        .map_err(|e| e.to_string())?;
    let command = parsed.positionals.first().map(String::as_str);
    match command {
        Some("child") => {
            let w = workload(&parsed)?;
            let result = crate::rep::run(RepOptions {
                workload: w,
                seed,
                duration: parsed
                    .get_parsed("duration", w.duration, "simulated seconds")
                    .map_err(|e| e.to_string())?,
                profile: parsed.has("profile"),
                setup_only: parsed.has("setup-only"),
            })?;
            println!("{}", result.to_json());
            Ok(true)
        }
        Some("layers") => {
            let scale = parsed
                .get_parsed("scale", 1.0f64, "a batch scale")
                .map_err(|e| e.to_string())?;
            let values = crate::layers::run(workload(&parsed)?, seed, scale)?;
            println!("{}", crate::layers::values_to_json(&values));
            Ok(true)
        }
        Some("contract-json") => {
            print!("{}", crate::metrics::benchmark_json());
            Ok(true)
        }
        Some("compare") => match parsed.positionals.as_slice() {
            [_, a, b] => crate::compare::run(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two result files".into()),
        },
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
        None if parsed.get("workload").is_some() => {
            let seconds = parsed
                .get_parsed(
                    "seconds",
                    crate::suite::CONTRACT_RUN_SECONDS as f64,
                    "seconds",
                )
                .map_err(|e| e.to_string())?;
            let trace = match parsed.get("trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
            };
            crate::suite::contract_run(workload(&parsed)?, seed, seconds, trace)
        }
        None => {
            let quick = parsed.has("quick");
            let default_out = format!(
                "{}/results/seed{seed}{}.json",
                std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target/benchmark".into()),
                if quick { "-quick" } else { "" }
            );
            let out = PathBuf::from(parsed.get("out").unwrap_or(&default_out));
            crate::suite::suite_run(seed, quick, &out)
        }
    }
}

/// Entry point shared by `benchmark` and `benchmark-traced`. Exit code 0
/// only when the command ran and every output check passed.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
