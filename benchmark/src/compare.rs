//! `compare A.json B.json`: applies each end-to-end metric's bound per
//! workload. `A` is the base (the parent commit, or the first of two
//! sets of runs of one commit), `B` the candidate.

use std::path::Path;

use radar_cli::json::Value;

use crate::estimate::spread;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::record::{arr, num, num_arr, text};

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `B` is no worse than `A` by more than the bound.
    Ok,
    /// `B` is worse than `A` by more than the bound.
    Worse,
    /// Within the bound, but the run-to-run spread of either side is
    /// wider than the bound, so "unchanged" cannot be said — unless every
    /// run of `B` reads better than every run of `A`.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` reads than `a`, as a share of `a` (negative when
/// better).
pub fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    delta / a.abs()
}

/// The rule of choosing-metrics section 6.5 for one pair. `runs_a` and
/// `runs_b` are the per-run samples behind the two values (empty for
/// simulated outcomes, which repeat exactly).
pub fn judge(m: &EndToEnd, a: f64, b: f64, runs_a: &[f64], runs_b: &[f64]) -> Verdict {
    if (b - a).abs() <= m.floor {
        return Verdict::Ok;
    }
    if worsening(m, a, b) > m.bound {
        return Verdict::Worse;
    }
    let wide = |runs: &[f64]| spread(runs).is_some_and(|s| s > m.bound);
    if !(wide(runs_a) || wide(runs_b)) {
        return Verdict::Ok;
    }
    let every_b_better = runs_b.iter().all(|&y| {
        runs_a.iter().all(|&x| match m.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if every_b_better {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

/// Where a result file keeps the per-run samples of a metric.
fn samples_key(metric: &str) -> Option<&'static str> {
    match metric {
        "wall_s" => Some("run_totals_s"),
        "setup_s" => Some("setup_samples_s"),
        "peak_rss_mb" => Some("peak_rss_samples_mb"),
        _ => None,
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc["workloads"]
        .as_array()?
        .iter()
        .find(|w| w["name"] == name)
}

/// Compares two result files of the full suite; prints one row per
/// (workload, metric). Returns `false` when any row is `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in [
        "seed",
        "git_revision",
        "rustc",
        "nproc",
        "cpu_model",
        "repetitions",
    ] {
        println!("# {key}: A={} B={}", a[key], b[key]);
    }
    let same_seed = a["seed"] == b["seed"] && a["quick"] == b["quick"];
    println!(
        "{:<22} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut counts = [0usize; 3];
    for wa in arr(&a, "workloads")? {
        let name = text(wa, "name")?;
        let wb = workload(&b, name)
            .ok_or_else(|| format!("{name} is missing from {}", b_path.display()))?;
        for m in &END_TO_END {
            let value = |w: &Value| {
                num(&w["end_to_end"][m.name], "value")
                    .map_err(|e| format!("{name}.{}: {e}", m.name))
            };
            let runs = |w: &Value| match samples_key(m.name) {
                Some(key) => num_arr(&w[key], "values"),
                None => Ok(Vec::new()),
            };
            let (va, vb) = (value(wa)?, value(wb)?);
            let verdict = judge(m, va, vb, &runs(wa)?, &runs(wb)?);
            counts[verdict as usize] += 1;
            println!(
                "{name:<22} {:<22} {va:>14.6} {vb:>14.6} {:>9.4} {:>6.1}%  {}",
                m.name,
                vb / va,
                m.bound * 100.0,
                verdict.as_str()
            );
        }
        if same_seed {
            let same = wa["report_digest"] == wb["report_digest"];
            println!(
                "{name:<22} report_digest {} ({} vs {})",
                if same {
                    "identical: every simulated statistic repeats"
                } else {
                    "DIFFERS: simulated behaviour changed"
                },
                wa["report_digest"],
                wb["report_digest"]
            );
        }
    }
    println!(
        "{} ok, {} worse, {} unresolved (ratios are B/A, base A = {})",
        counts[Verdict::Ok as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize],
        a_path.display()
    );
    Ok(counts[Verdict::Worse as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn bound_direction_and_floor() {
        let wall = metric("wall_s");
        assert_eq!(judge(wall, 10.0, 12.4, &[], &[]), Verdict::Ok);
        assert_eq!(judge(wall, 10.0, 12.6, &[], &[]), Verdict::Worse);
        assert_eq!(judge(wall, 10.0, 5.0, &[], &[]), Verdict::Ok);
        let served = metric("served_share");
        assert_eq!(judge(served, 1.0, 0.95, &[], &[]), Verdict::Ok);
        assert_eq!(judge(served, 1.0, 0.75, &[], &[]), Verdict::Worse);
        assert_eq!(judge(served, 0.95, 1.0, &[], &[]), Verdict::Ok);
        // Differences under 5 ms never count for set-up.
        let setup = metric("setup_s");
        assert_eq!(judge(setup, 0.010, 0.014, &[], &[]), Verdict::Ok);
        let noisy = [0.008, 0.010, 0.012, 0.016, 0.020];
        assert_eq!(judge(setup, 0.010, 0.014, &noisy, &noisy), Verdict::Ok);
        assert_eq!(judge(setup, 0.100, 0.140, &[], &[]), Verdict::Worse);
        assert_eq!(judge(setup, 0.100, 0.120, &[], &[]), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let wall = metric("wall_s");
        let noisy = [6.0, 8.0, 10.0, 12.0, 14.0];
        let steady = [10.0, 10.1, 10.2, 10.1, 10.0];
        assert_eq!(
            judge(wall, 10.0, 10.1, &noisy, &steady),
            Verdict::Unresolved
        );
        assert_eq!(judge(wall, 10.0, 10.1, &steady, &steady), Verdict::Ok);
        assert_eq!(
            judge(wall, 10.0, 5.0, &noisy, &[5.0, 5.1, 5.2]),
            Verdict::Ok
        );
        // Worse beyond the bound stays worse however noisy.
        assert_eq!(judge(wall, 10.0, 13.0, &noisy, &noisy), Verdict::Worse);
    }
}
