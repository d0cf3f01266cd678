//! `radar topology` — inspect, validate, and convert backbone specs.

use radar_simnet::{builders, Region, Topology};

use crate::args::Parsed;

const SWITCHES: &[&str] = &["stats", "dot", "spec", "help"];

pub(crate) fn command(args: &[&str]) -> Result<String, String> {
    let parsed = Parsed::parse(args, &[], SWITCHES).map_err(|e| e.to_string())?;
    if parsed.has("help") {
        return Err(help());
    }
    let Some(source) = parsed.positionals.first() else {
        return Err(help());
    };
    if parsed.positionals.len() > 1 {
        return Err(format!(
            "topology takes one source, got {:?}",
            parsed.positionals
        ));
    }
    let topo = load(source)?;
    if parsed.has("dot") {
        return Ok(topo.to_dot());
    }
    if parsed.has("spec") {
        return Ok(topo.to_spec());
    }
    // Default (and --stats): a validation + statistics report.
    Ok(stats(source, &topo))
}

/// The topology named by `source`: `uunet` for the built-in backbone,
/// else a spec file.
pub(crate) fn load(source: &str) -> Result<Topology, String> {
    if source == "uunet" {
        return Ok(builders::uunet());
    }
    let text = std::fs::read_to_string(source)
        .map_err(|e| format!("cannot read topology {source}: {e}"))?;
    Topology::from_spec(&text).map_err(|e| format!("{source}: {e}"))
}

fn stats(source: &str, topo: &Topology) -> String {
    let routes = topo.routes();
    let mut out = format!("topology {source}: valid\n");
    out.push_str(&format!(
        "nodes     {} ({})\n",
        topo.len(),
        Region::ALL
            .iter()
            .map(|&r| format!("{} {}", topo.nodes_in_region(r).len(), r.label()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("links     {}\n", topo.links().len()));
    out.push_str(&format!("diameter  {} hops\n", routes.diameter()));
    out.push_str(&format!(
        "centroid  {} (natural redirector home)\n",
        topo.name(routes.centroid())
    ));
    let n = topo.len() as f64;
    let total: f64 = topo
        .nodes()
        .flat_map(|a| topo.nodes().map(move |b| (a, b)))
        .map(|(a, b)| routes.distance(a, b) as f64)
        .sum();
    out.push_str(&format!(
        "mean path {:.2} hops\n",
        total / (n * (n - 1.0)).max(1.0)
    ));
    out
}

fn help() -> String {
    "radar topology — inspect a backbone\n\
     \n\
     USAGE: radar topology <uunet|FILE> [--stats|--dot|--spec]\n\
     \n\
     \x20 --stats   validation + statistics report (default)\n\
     \x20 --dot     Graphviz rendering\n\
     \x20 --spec    normalized spec-format output\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_uunet_stats() {
        let out = command(&["uunet"]).unwrap();
        assert!(out.contains("nodes     53"));
        assert!(out.contains("diameter"));
        assert!(out.contains("centroid"));
    }

    #[test]
    fn dot_and_spec_outputs() {
        let dot = command(&["uunet", "--dot"]).unwrap();
        assert!(dot.starts_with("graph backbone"));
        let spec = command(&["uunet", "--spec"]).unwrap();
        assert!(spec.contains("node Seattle wna"));
        // The spec output round-trips through the loader.
        let reparsed = Topology::from_spec(&spec).unwrap();
        assert_eq!(reparsed.len(), 53);
    }

    #[test]
    fn missing_file_reported() {
        let err = command(&["/nonexistent/backbone.spec"]).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn no_source_prints_help() {
        let err = command(&[]).unwrap_err();
        assert!(err.contains("USAGE"));
    }
}
