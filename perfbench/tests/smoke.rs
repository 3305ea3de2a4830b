//! Tiny-budget smoke run of every workload in both modes: each metric that
//! `BENCHMARK.json` declares is printed with its declared unit, and every
//! cell passes its checks.

use std::process::Command;

use twig_serde::Value;

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    field(spec, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("string").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Value =
        twig_serde_json::from_str(&std::fs::read_to_string(spec_path).expect("read spec"))
            .expect("parse spec");
    let workloads: Vec<String> = field(&spec, "workloads")
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name").as_str().expect("name").to_string())
        .collect();
    assert_eq!(workloads, ["headline", "config_sweep", "hw_sweep_streamed"]);

    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            assert!(
                out.status.success(),
                "{workload} trace={trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                stdout.contains(&format!("stats_digest {workload} seed=3 ")),
                "{stdout}"
            );
            let result: Value =
                twig_serde_json::from_str(stdout.lines().last().expect("result line"))
                    .expect("result is JSON");
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{stdout}");
            assert_eq!(field(&result, "failed").as_u64(), Some(0), "{stdout}");
            assert!(field(&result, "attempted").as_u64() >= Some(1));

            let mut printed: Vec<&str> = field(&result, "metrics")
                .as_object()
                .expect("metrics")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let expected = declared(&spec, list);
            let mut names: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
            printed.sort_unstable();
            names.sort_unstable();
            assert_eq!(printed, names, "{workload} trace={trace}");
            for (name, unit) in &expected {
                let m = field(&result, "metrics");
                let metric = field(m, name);
                assert_eq!(
                    field(metric, "unit").as_str(),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = field(metric, "value").as_f64().expect("numeric value");
                assert!(value.is_finite(), "{name}");
            }
            if trace == "1" {
                assert_eq!(
                    field(field(field(&result, "metrics"), "failed_frac"), "value").as_f64(),
                    Some(0.0)
                );
            }
        }
    }
}
