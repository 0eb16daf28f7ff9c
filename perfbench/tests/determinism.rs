//! The benchmark's own checks, at smoke size: every workload repeats its
//! records exactly, a different seed changes them, the benchmark's
//! simulation path matches the library's one-call path, and the metric
//! names agree with `BENCHMARK.json`.

use perfbench::api;
use perfbench::harness::{self, Options, Outcome, END_TO_END, PER_LAYER};
use perfbench::workloads::{serve_cells, Size, Workload};
use swat_serve::json::Json;

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    harness::run(Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    })
}

#[test]
fn every_workload_repeats_its_records_and_a_new_seed_changes_them() {
    for workload in Workload::ALL {
        let first = smoke(workload, 11, false);
        let again = smoke(workload, 11, false);
        let other = smoke(workload, 12, false);
        for outcome in [&first, &again, &other] {
            assert_eq!(
                outcome.failed,
                0,
                "{}: {:?}",
                workload.name(),
                outcome.problems
            );
        }
        assert!(!first.records.is_empty(), "{}", workload.name());
        assert_eq!(first.records, again.records, "{}", workload.name());
        for (a, b) in first.records.iter().zip(&other.records) {
            assert_ne!(a.digest, b.digest, "{}: {}", workload.name(), a.name);
        }
    }
}

#[test]
fn prepared_cells_reproduce_the_library_run_byte_for_byte() {
    for workload in Workload::ALL {
        for spec in serve_cells(workload, 5, Size::Smoke) {
            let trace = api::generate_trace(&spec);
            let faults = api::fault_plan(&spec, &trace);
            let cell = api::prepared(&spec, api::build_fleet(&spec), trace, faults);
            let (ours, _) = api::run_profiled(&cell);
            let library = api::run_spec(&spec).expect("benchmark specs are valid");
            assert_eq!(
                api::report_json(&ours),
                api::report_json(&library),
                "{}",
                spec.name
            );
        }
    }
}

#[test]
fn untraced_runs_print_end_to_end_metrics_and_traced_runs_per_layer_ones() {
    for workload in Workload::ALL {
        let untraced = smoke(workload, 3, false);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        assert!(untraced.metrics.iter().all(|m| m.value > 0.0));
        assert!(untraced.spans_json.is_none());
        // The untraced run adds one traced check per serve cell.
        let cells = serve_cells(workload, 3, Size::Smoke).len() as u64;
        let ops = untraced.records.len() as u64;
        assert_eq!(untraced.attempted, ops + cells);

        let traced = smoke(workload, 3, true);
        assert_eq!(traced.failed, 0, "{:?}", traced.problems);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.map(|(n, _)| n));
        assert_eq!(traced.records, untraced.records);
        let dump = traced.spans_json.expect("traced runs dump their spans");
        Json::parse(&dump).expect("the span dump is JSON");
        let metric = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("listed metric")
        };
        if cells > 0 {
            assert!(metric("sim.events") > 0.0 && metric("sim.dispatch_s") > 0.0);
            assert!(metric("workloads.trace_s") > 0.0 && metric("metrics.assemble_s") > 0.0);
        } else {
            assert!(metric("attention.bigbird_fp16_kv_reloads") > 0.0);
            assert!(metric("attention.longformer_fp32_flops_per_s") > 0.0);
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let Json::Obj(doc) = Json::parse(&text).expect("BENCHMARK.json parses") else {
        panic!("BENCHMARK.json is an object");
    };
    let field = |key: &str| {
        doc.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
    };
    let entries = |key: &str, fields: [&str; 2]| -> Vec<(String, String)> {
        let Json::Arr(items) = field(key) else {
            panic!("{key} is a list")
        };
        items
            .iter()
            .map(|item| {
                let Json::Obj(pairs) = item else {
                    panic!("{key} entries are objects")
                };
                let get = |f: &str| match pairs.iter().find(|(k, _)| k == f) {
                    Some((_, Json::Str(s))) => s.clone(),
                    _ => panic!("{key} entry has no string {f}"),
                };
                (get(fields[0]), get(fields[1]))
            })
            .collect()
    };
    let workloads: Vec<String> = entries("workloads", ["name", "why"])
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    let listed = |key| entries(key, ["name", "unit"]);
    let expected = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), expected(&END_TO_END));
    assert_eq!(listed("per_layer"), expected(&PER_LAYER));
}
