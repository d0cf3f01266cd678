//! `experiments` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments [--quick|--tiny] [--seed N] [--out DIR] <command>...
//!
//! commands: table1 fig6 fig7 fig8a fig8b table2 fig9 baselines
//!           ablation-constant ablation-thresholds ablation-period
//!           demand-shift updates policies redirectors heterogeneous
//!           links storage variance faults all
//! ```
//!
//! Default scale is the paper's Table 1 (10 000 objects, 40 req/s per
//! node, 3 000 simulated seconds); `--quick` runs a reduced scale for
//! smoke-testing and `--tiny` the unit-test scale (used by
//! `scripts/check.sh` to regenerate `BENCH_policies.json` cheaply).
//! `--out DIR` additionally writes each series as CSV.

use radar_bench::experiments::{self, Harness};
use radar_bench::ExpConfig;

/// An experiment: it runs its simulations and returns its tables.
type Experiment = fn(&mut Harness) -> String;

/// Every command, in the order `all` runs them.
const COMMANDS: [(&str, Experiment); 20] = [
    ("table1", experiments::table1),
    ("fig6", experiments::fig6),
    ("fig7", experiments::fig7),
    ("fig8a", experiments::fig8a),
    ("fig8b", experiments::fig8b),
    ("table2", experiments::table2),
    ("fig9", experiments::fig9),
    ("baselines", experiments::baselines),
    ("ablation-constant", experiments::ablation_constant),
    ("ablation-thresholds", experiments::ablation_thresholds),
    ("ablation-period", experiments::ablation_period),
    ("demand-shift", experiments::demand_shift),
    ("updates", experiments::updates),
    ("policies", experiments::policies),
    ("redirectors", experiments::redirectors),
    ("heterogeneous", experiments::heterogeneous),
    ("links", experiments::links),
    ("storage", experiments::storage),
    ("variance", experiments::variance),
    ("faults", experiments::faults),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::full();
    let mut commands = Vec::new();
    let mut all = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" | "--tiny" => {
                let scale = if arg == "--quick" {
                    ExpConfig::quick()
                } else {
                    ExpConfig::tiny()
                };
                cfg = ExpConfig {
                    seed: cfg.seed,
                    out_dir: cfg.out_dir,
                    ..scale
                };
            }
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                cfg.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"));
            }
            "--out" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--out needs a directory"));
                cfg.out_dir = Some(v.into());
            }
            "--help" | "-h" => usage(""),
            "all" => all = true,
            other => match COMMANDS.iter().find(|(name, _)| *name == other) {
                Some(&command) => commands.push(command),
                None => usage(&format!("unknown argument {other:?}")),
            },
        }
    }
    if all {
        commands = COMMANDS.to_vec();
    }
    if commands.is_empty() {
        usage("no command given");
    }

    eprintln!(
        "scale: {} objects, {} req/s per node, {}s simulated, seed {}",
        cfg.num_objects, cfg.node_rate, cfg.duration, cfg.seed
    );
    let start = std::time::Instant::now();
    let mut harness = Harness::new(cfg);
    for (_, command) in commands {
        println!("{}", command(&mut harness));
    }
    eprintln!("total wall time: {:?}", start.elapsed());
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: experiments [--quick|--tiny] [--seed N] [--out DIR] <command>...\n\
         commands: {} all",
        COMMANDS.map(|(name, _)| name).join(" ")
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}
