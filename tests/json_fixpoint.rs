//! Reader and writer of `radar::obs::json` agree on real output at the
//! byte level: a small traced run's report survives parse → `pretty()`
//! unchanged, every event line survives `from_json_line` →
//! `to_json_line`, and the compact printer reproduces the event
//! encoder's layout. A drift between the one reader and the one printer
//! — a float re-rendered, a key reordered, an integer rounded through
//! `f64` — fails tier-1 here.

use radar::core::{Catalog, ConsistencyMix, Params};
use radar::obs::json::Value;
use radar::obs::{Event, Recorder, SharedRecorder, DEFAULT_CAPACITY};
use radar::sim::{FaultSpec, Scenario, Simulation};
use radar::workload::ZipfReeds;

const OBJECTS: u32 = 150;

/// 150 objects for 30 s with a host outage and provider updates, so the
/// log holds most event types and the report a `protocol_health`
/// section, non-trivial summaries and a relocation log.
fn traced_run() -> (String, String) {
    let params = Params {
        placement_period: 10.0,
        measurement_interval: 2.0,
        ..Params::paper()
    };
    let topology = radar::simnet::builders::uunet();
    let scenario = Scenario::builder()
        .params(params)
        .num_objects(OBJECTS)
        .node_request_rate(3.0)
        .duration(30.0)
        .seed(13)
        .catalog(Catalog::with_mix(
            OBJECTS,
            12 * 1024,
            topology.len() as u16,
            ConsistencyMix::Mixed,
        ))
        .update_rate(15.0)
        .faults(
            FaultSpec::new()
                .with_min_replicas(2)
                .with_declare_dead_after(6.0)
                .host_down(9, 4.0, Some(18.0)),
        )
        .topology(topology)
        .build()
        .expect("valid scenario");
    let recorder = SharedRecorder::from(Recorder::new(DEFAULT_CAPACITY));
    let mut sim = Simulation::new(scenario, Box::new(ZipfReeds::new(OBJECTS)));
    sim.attach_observer(Box::new(recorder.clone()));
    sim.enable_object_ledger();
    let report = sim.run();
    assert!(report.protocol_health.is_some(), "ledger was enabled");
    let log = recorder.with(Recorder::to_jsonl);
    assert_eq!(
        recorder.with(Recorder::recorded),
        log.lines().count() as u64,
        "one line per recorded event"
    );
    (report.to_json_pretty(), log)
}

#[test]
fn report_and_event_log_are_fixpoints_of_reader_and_printer() {
    let (report, log) = traced_run();

    // (a) The report, as the simulator printed it.
    let mut tree = Value::parse(&report).expect("the report is JSON");
    assert_eq!(tree.pretty(), report);
    assert!(tree["protocol_health"]["events_seen"].as_u64() > Some(10_000));
    // No counter of a 30-s run is above 2^53; one synthetic member is.
    let Value::Obj(members) = &mut tree else {
        panic!("the report is an object")
    };
    members.push(("synthetic".into(), Value::UInt(u64::MAX)));
    let text = tree.pretty();
    assert!(text.ends_with("\"synthetic\": 18446744073709551615\n}"));
    let back = Value::parse(&text).expect("still JSON");
    assert!(matches!(back["synthetic"], Value::UInt(u64::MAX)));
    assert_eq!(back.pretty(), text);

    // (b), (c) Every line of the log.
    let mut types = std::collections::BTreeSet::new();
    for line in log.lines() {
        let event = Event::from_json_line(line).expect("the log parses");
        assert_eq!(event.to_json_line(), line);
        assert_eq!(
            Value::parse(line).expect("a line is JSON").to_string(),
            line
        );
        types.insert(event.type_name());
    }
    assert!(log.lines().count() > 10_000);
    for wanted in ["decision", "placement", "fault", "provider-update"] {
        assert!(types.contains(wanted), "no {wanted} event in {types:?}");
    }
}
