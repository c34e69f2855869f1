//! The metric names and units the binary prints are the ones
//! `BENCHMARK.json` at the repository root declares.

use perfbench::gen::Workload;
use perfbench::report::{END_TO_END, PER_LAYER};

#[test]
fn benchmark_json_declares_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let (e2e, rest) = json.split_once("\"per_layer\"").expect("per_layer section");
    let e2e = e2e
        .split_once("\"end_to_end\"")
        .expect("end_to_end section")
        .1;
    for (name, unit) in END_TO_END {
        assert!(
            e2e.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
    for (name, unit) in PER_LAYER {
        assert!(
            rest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
