//! Hostile text through the four line-oriented readers: a fault schedule
//! (parsed, then validated against uunet), a request trace (parsed with
//! its ids checked), the uunet topology spec and the JSONL event log of a
//! small faulted run. Each is mutated in-process the ways ROADMAP's
//! robustness aim lists: a token swapped for NaN, inf, 2^64, -1 or a
//! 40-digit number; a line deleted, duplicated or swapped with another; a
//! byte flipped; the text cut short. Every mutant must be accepted, or
//! rejected with a message that starts `line N:` for a line N of the
//! mutant; a topology may also be rejected as a whole, as empty or
//! disconnected. A panic fails the test.

use radar::obs::{parse_jsonl, Recorder, SharedRecorder, DEFAULT_CAPACITY};
use radar::sim::{FaultSpec, Scenario, Simulation, Trace};
use radar::simcore::SimRng;
use radar::simnet::{builders, SpecError, Topology, TopologyError};
use radar::workload::ZipfReeds;

/// Mutants drawn per input.
const MUTANTS: usize = 250;

const TOKENS: [&str; 5] = [
    "NaN",
    "inf",
    "18446744073709551616",
    "-1",
    "1234567890123456789012345678901234567890",
];

/// The byte spans of a line's tokens: runs of characters that are
/// neither blanks nor JSON punctuation.
fn tokens(line: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in line.char_indices().chain([(line.len(), ' ')]) {
        let separator = c.is_whitespace() || "{}[]:,\"".contains(c);
        match (start, separator) {
            (None, false) => start = Some(i),
            (Some(s), true) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    spans
}

/// `text` with one to three mutations applied.
fn mutate(text: &str, rng: &mut SimRng) -> String {
    let mut text = text.to_string();
    for _ in 0..1 + rng.index(3) {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        if lines.is_empty() {
            break;
        }
        let (i, j) = (rng.index(lines.len()), rng.index(lines.len()));
        match rng.index(6) {
            0 => {
                let spans = tokens(&lines[i]);
                if !spans.is_empty() {
                    let (s, e) = spans[rng.index(spans.len())];
                    lines[i].replace_range(s..e, TOKENS[rng.index(TOKENS.len())]);
                }
            }
            1 => drop(lines.remove(i)),
            2 => lines.insert(j, lines[i].clone()),
            3 => lines.swap(i, j),
            kind => {
                let mut bytes = text.into_bytes();
                let at = rng.index(bytes.len().max(1)).min(bytes.len());
                if kind == 4 && at < bytes.len() {
                    bytes[at] ^= 1 << rng.index(8);
                } else {
                    bytes.truncate(at);
                }
                text = String::from_utf8_lossy(&bytes).into_owned();
                continue;
            }
        }
        text = lines.join("\n") + "\n";
    }
    text
}

/// Mutates `text` [`MUTANTS`] times and requires each outcome of `read`
/// to be `Ok` or a message naming a line of the mutant, and a tenth of
/// them at least to be rejected.
fn survives(name: &str, seed: u64, text: &str, read: impl Fn(&str) -> Result<(), String>) {
    let mut rng = SimRng::seed_from(seed);
    let mut rejected = 0;
    for _ in 0..MUTANTS {
        let mutant = mutate(text, &mut rng);
        let Err(message) = read(&mutant) else {
            continue;
        };
        rejected += 1;
        let line = message
            .strip_prefix("line ")
            .and_then(|rest| rest.split(':').next())
            .and_then(|n| n.parse::<usize>().ok());
        assert!(
            matches!(line, Some(n) if (1..=mutant.lines().count()).contains(&n)),
            "{name}: {message:?} names no line of the mutant\n{mutant}"
        );
    }
    assert!(
        rejected >= MUTANTS / 10,
        "{name}: {rejected} mutants rejected"
    );
}

#[test]
fn mutated_inputs_parse_or_name_a_line() {
    let uunet = builders::uunet();
    let links: Vec<(u16, u16)> = uunet
        .links()
        .iter()
        .map(|&(a, b)| (a.index() as u16, b.index() as u16))
        .collect();
    let (a, b) = links[3];
    let faults = format!(
        "# a schedule\nmin-replicas 2\ndeclare-dead-after 30\n\nhost-down 5 60 180\n\
         host-down 12 120  # never repaired\nlink-down {a} {b} 100 200\n\
         link-slow {a} {b} 4.0 150 400\n"
    );
    survives("faults", 1, &faults, |text| {
        let spec = FaultSpec::from_text(text).map_err(|e| e.to_string())?;
        spec.validate(uunet.len(), &links)
            .map_err(|e| e.to_string())
    });

    let trace: String = std::iter::once("# time gateway object\n".to_string())
        .chain((0..120).map(|i| format!("{} {} {}\n", f64::from(i) * 0.25, i % 53, i % 40)))
        .collect();
    survives("trace", 2, &trace, |text| {
        Trace::from_text_checked(text, Some((53, 40)))
            .map(drop)
            .map_err(|e| e.to_string())
    });

    survives(
        "spec",
        3,
        &uunet.to_spec(),
        |text| match Topology::from_spec(text) {
            Ok(_)
            | Err(SpecError::Topology(TopologyError::Disconnected { .. } | TopologyError::Empty)) => {
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        },
    );

    let scenario = Scenario::builder()
        .num_objects(16)
        .node_request_rate(0.05)
        .duration(60.0)
        .seed(42)
        .faults(
            FaultSpec::new()
                .with_min_replicas(2)
                .with_declare_dead_after(10.0)
                .host_down(5, 20.0, Some(40.0)),
        )
        .build()
        .expect("valid scenario");
    let recorder = SharedRecorder::from(Recorder::new(DEFAULT_CAPACITY));
    let mut sim = Simulation::new(scenario, Box::new(ZipfReeds::new(16)));
    sim.attach_observer(Box::new(recorder.clone()));
    sim.run();
    let log = recorder.with(Recorder::to_jsonl);
    assert!(
        log.contains("\"type\":\"fault\""),
        "the run logged no fault"
    );
    survives("log", 4, &log, |text| {
        parse_jsonl(text).map(drop).map_err(|e| e.to_string())
    });
}
