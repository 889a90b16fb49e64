//! Small-scale runs of every workload: outputs check out, the counts
//! that must repeat for a seed do, and the metric names match
//! `BENCHMARK.json`.

use perfbench::workloads::{run, RunOptions, Workload};
use perfbench::END_TO_END;

fn small(workload: Workload, seed: u64, trace: bool) -> RunOptions {
    RunOptions {
        workload,
        seed,
        seconds: 0.4,
        trace,
        small: true,
    }
}

/// The `"name"` values of one list in `BENCHMARK.json`.
fn benchmark_names(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|item| {
            let item = &item[item.find('"').expect("name value") + 1..];
            item[..item.find('"').expect("name ends")].to_string()
        })
        .collect()
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    for workload in Workload::ALL {
        let (a, _) = run(&small(workload, 7, true)).expect("first run");
        let (b, _) = run(&small(workload, 7, true)).expect("second run");
        assert!(a.correct(), "{}: {:?}", workload.name(), a.checks.notes);
        assert!(b.correct(), "{}: {:?}", workload.name(), b.checks.notes);
        assert_eq!(a.counts, b.counts, "{}", workload.name());
        assert!(a.counts["stream.cuts"] >= 1.0);
    }
}

#[test]
fn seeds_change_the_inputs() {
    let (a, _) = run(&small(Workload::ServeSwapZipf, 1, false)).expect("seed 1");
    let (b, _) = run(&small(Workload::ServeSwapZipf, 2, false)).expect("seed 2");
    assert_ne!(a.counts["answer_mae"], b.counts["answer_mae"]);
}

#[test]
fn every_run_reports_the_metrics_benchmark_json_names() {
    let e2e = benchmark_names("end_to_end");
    let listed: Vec<&str> = END_TO_END.iter().map(|&(name, _)| name).collect();
    assert_eq!(e2e, listed);
    let per_layer = benchmark_names("per_layer");
    for workload in Workload::ALL {
        let (plain, _) = run(&small(workload, 3, false)).expect("untraced run");
        for name in &e2e {
            let (value, _) = plain.e2e[name.as_str()];
            assert!(value.is_finite() && value != 0.0, "{name} = {value}");
        }
        let (traced, tracer) = run(&small(workload, 3, true)).expect("traced run");
        assert!(!tracer.spans().is_empty());
        let produced: Vec<&String> = traced.layers.keys().collect();
        let mut listed: Vec<&String> = per_layer.iter().collect();
        listed.sort();
        assert_eq!(produced, listed, "{}", workload.name());
        assert!(traced.layers.values().all(|(v, _)| v.is_finite()));
    }
}
