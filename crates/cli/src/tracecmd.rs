//! `radar trace` — inspect and validate request traces.

use radar_sim::Trace;

use crate::args::Parsed;

pub(crate) fn command(args: &[&str]) -> Result<String, String> {
    let parsed = Parsed::parse(args, &["top"], &["help"]).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        return Err(help());
    }
    match parsed.positionals.as_slice() {
        [sub, path] if sub == "validate" => {
            let trace = load(path, None)?;
            Ok(format!(
                "{path}: valid, {} requests over {:.1}s\n",
                trace.len(),
                trace.duration()
            ))
        }
        [sub, path] if sub == "stats" => {
            let trace = load(path, None)?;
            Ok(stats(path, &trace))
        }
        [sub, path] if sub == "objects" => {
            let top: usize = parsed
                .get_parsed("top", TOP_ROWS, "a row count")
                .map_err(|e| e.to_string())?;
            let trace = load(path, None)?;
            Ok(objects(path, &trace, top))
        }
        _ => Err(help()),
    }
}

/// The trace in the file at `path`, its ids checked against `(gateways,
/// objects)` when given.
pub(crate) fn load(path: &str, ids: Option<(u32, u32)>) -> Result<Trace, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    Trace::from_text_checked(&text, ids).map_err(|e| format!("{path}: {e}"))
}

/// Rows listed per share table before the remainder is folded into a
/// trailing "… N more" line.
const TOP_ROWS: usize = 10;

fn stats(path: &str, trace: &Trace) -> String {
    let mut gateways = std::collections::BTreeMap::new();
    let mut objects = std::collections::BTreeMap::new();
    for e in trace.entries() {
        *gateways.entry(u32::from(e.gateway)).or_insert(0u64) += 1;
        *objects.entry(e.object).or_insert(0u64) += 1;
    }
    let duration = trace.duration();
    // A single-entry (or empty) trace spans zero time: there is no
    // meaningful request rate, so say so instead of dividing by zero.
    let rate = if duration > 0.0 {
        format!("{:.1} req/s", trace.len() as f64 / duration)
    } else {
        "rate n/a".to_string()
    };
    let mut out = format!("trace {path}\n");
    out.push_str(&format!(
        "requests   {} over {duration:.1}s ({rate})\n",
        trace.len(),
    ));
    out.push_str(&format!("gateways   {} distinct\n", gateways.len()));
    out.push_str(&share_table("gateway", &gateways, trace.len()));
    out.push_str(&format!("objects    {} distinct\n", objects.len()));
    out.push_str(&share_table("object", &objects, trace.len()));
    out
}

/// Renders a fixed-width count/share table, busiest first (ties broken
/// by id), truncated to [`TOP_ROWS`] rows.
fn share_table(label: &str, counts: &std::collections::BTreeMap<u32, u64>, total: usize) -> String {
    let mut rows: Vec<(u64, u32)> = counts.iter().map(|(&id, &c)| (c, id)).collect();
    rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut out = format!("  {label:<10} {:>9} {:>7}\n", "count", "share");
    for &(count, id) in rows.iter().take(TOP_ROWS) {
        let share = if total > 0 {
            100.0 * count as f64 / total as f64
        } else {
            0.0
        };
        out.push_str(&format!("  {id:<10} {count:>9} {share:>6.1}%\n"));
    }
    if rows.len() > TOP_ROWS {
        out.push_str(&format!("  … {} more\n", rows.len() - TOP_ROWS));
    }
    out
}

/// Per-object request-share breakdown with a Zipf skew fit: the
/// paper's workloads are Zipf-like, and placement behaviour (and thus
/// churn) is driven by how skewed the popularity really is.
fn objects(path: &str, trace: &Trace, top: usize) -> String {
    let mut counts = std::collections::BTreeMap::new();
    for e in trace.entries() {
        *counts.entry(e.object).or_insert(0u64) += 1;
    }
    let total = trace.len();
    let mut out = format!("trace {path}\n");
    out.push_str(&format!(
        "requests   {total} across {} distinct objects\n",
        counts.len()
    ));
    let mut ranked: Vec<(u64, u32)> = counts.iter().map(|(&id, &c)| (c, id)).collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    out.push_str(&format!(
        "  {:<6} {:<10} {:>9} {:>7} {:>7}\n",
        "rank", "object", "count", "share", "cum"
    ));
    let mut cum = 0u64;
    for (rank, &(count, id)) in ranked.iter().enumerate() {
        cum += count;
        if rank < top {
            let share = 100.0 * count as f64 / total.max(1) as f64;
            let cum_share = 100.0 * cum as f64 / total.max(1) as f64;
            out.push_str(&format!(
                "  {:<6} {id:<10} {count:>9} {share:>6.1}% {cum_share:>6.1}%\n",
                rank + 1
            ));
        }
    }
    if ranked.len() > top {
        out.push_str(&format!("  … {} more objects\n", ranked.len() - top));
    }
    if let Some((alpha, r2)) = zipf_fit(&ranked) {
        out.push_str(&format!(
            "zipf fit   count ∝ rank^-α with α = {alpha:.3} (R² = {r2:.3}) \
             over {} ranks\n",
            ranked.len()
        ));
        let skew = if alpha < 0.5 {
            "near-uniform popularity"
        } else if alpha < 1.2 {
            "moderately skewed (classic web-workload territory)"
        } else {
            "heavily skewed: a few objects dominate"
        };
        out.push_str(&format!("           {skew}\n"));
    } else {
        out.push_str("zipf fit   n/a (need at least two distinct objects)\n");
    }
    out
}

/// Least-squares fit of `ln(count) = c - α·ln(rank)` over the ranked
/// counts; returns `(α, R²)`. `None` when fewer than two ranks exist
/// (the slope is undefined).
fn zipf_fit(ranked: &[(u64, u32)]) -> Option<(f64, f64)> {
    if ranked.len() < 2 {
        return None;
    }
    let points: Vec<(f64, f64)> = ranked
        .iter()
        .enumerate()
        .map(|(i, &(count, _))| (((i + 1) as f64).ln(), (count as f64).ln()))
        .collect();
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let syy: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    // All counts equal → syy == 0: a perfectly flat (α = 0) fit.
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some((-slope, r2))
}

fn help() -> String {
    "radar trace — inspect request traces\n\
     \n\
     USAGE:\n\
     \x20 radar trace validate FILE           parse + order-check a trace\n\
     \x20 radar trace stats FILE              request/gateway/object statistics\n\
     \x20 radar trace objects FILE [--top N]  per-object request shares with a\n\
     \x20                                     Zipf skew fit (α via log-log\n\
     \x20                                     least squares)\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_trace(name: &str, body: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("radar-cli-{name}.trace"));
        std::fs::write(&path, body).expect("temp file writable");
        path
    }

    #[test]
    fn validate_and_stats() {
        let path = temp_trace("ok", "0 1 5\n0.5 1 5\n1.0 2 6\n");
        let p = path.to_str().expect("utf-8 temp path");
        let out = command(&["validate", p]).unwrap();
        assert!(out.contains("valid, 3 requests"));
        let out = command(&["stats", p]).unwrap();
        assert!(out.contains("2 distinct"), "{out}");
        // Gateway 1 carries 2 of 3 requests; object 5 likewise.
        assert!(out.contains("1                  2   66.7%"), "{out}");
        assert!(out.contains("5                  2   66.7%"), "{out}");
        assert!(out.contains("3.0 req/s"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn single_entry_trace_has_no_rate() {
        let path = temp_trace("single", "0 3 9\n");
        let p = path.to_str().expect("utf-8 temp path");
        let out = command(&["stats", p]).unwrap();
        assert!(out.contains("1 over 0.0s (rate n/a)"), "{out}");
        assert!(out.contains("3                  1  100.0%"), "{out}");
        assert!(!out.contains("inf"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn invalid_trace_reported() {
        let path = temp_trace("bad", "1 0 0\n0 0 0\n");
        let p = path.to_str().expect("utf-8 temp path");
        let err = command(&["validate", p]).unwrap_err();
        assert!(err.contains("sorted"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bad_subcommand_prints_help() {
        let err = command(&["frobnicate", "x"]).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn objects_reports_shares_and_zipf_fit() {
        // Counts 12/6/4/3 = 12·rank⁻¹ over ranks 1..4: α ≈ 1 exactly.
        let mut body = String::new();
        let mut t = 0.0;
        for (object, count) in [(5u32, 12), (9u32, 6), (2u32, 4), (7u32, 3)] {
            for _ in 0..count {
                body.push_str(&format!("{t} 1 {object}\n"));
                t += 0.1;
            }
        }
        // The trace format wants time-sorted entries.
        let mut lines: Vec<&str> = body.lines().collect();
        lines.sort_by(|a, b| {
            let ta: f64 = a.split_whitespace().next().unwrap().parse().unwrap();
            let tb: f64 = b.split_whitespace().next().unwrap().parse().unwrap();
            ta.partial_cmp(&tb).unwrap()
        });
        let path = temp_trace("objects", &(lines.join("\n") + "\n"));
        let p = path.to_str().expect("utf-8 temp path");
        let out = command(&["objects", p]).unwrap();
        assert!(out.contains("25 across 4 distinct objects"), "{out}");
        assert!(out.contains("5                 12   48.0%"), "{out}");
        assert!(out.contains("zipf fit"), "{out}");
        let alpha: f64 = out
            .split("α = ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .unwrap()
            .parse()
            .unwrap();
        assert!((alpha - 1.0).abs() < 0.15, "α = {alpha}, expected ≈ 1");
        let out_top = command(&["objects", p, "--top", "2"]).unwrap();
        assert!(out_top.contains("… 2 more objects"), "{out_top}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn objects_handles_single_object_trace() {
        let path = temp_trace("objects-one", "0 1 5\n0.5 1 5\n");
        let p = path.to_str().expect("utf-8 temp path");
        let out = command(&["objects", p]).unwrap();
        assert!(out.contains("zipf fit   n/a"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn zipf_fit_of_uniform_counts_is_flat() {
        let ranked = vec![(5u64, 1u32), (5, 2), (5, 3)];
        let (alpha, r2) = zipf_fit(&ranked).unwrap();
        assert!(alpha.abs() < 1e-9, "α = {alpha}");
        assert_eq!(r2, 1.0);
    }
}
