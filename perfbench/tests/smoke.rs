//! A short pass of every workload — those `BENCHMARK.json` gates and the
//! two it does not — end to end and traced, checking that the result
//! line names exactly the metrics `BENCHMARK.json` lists.
//!
//! Needs the daemons' release binaries, which `run.sh` builds:
//!
//! ```text
//! bash perfbench/run.sh --workload steady_predict --seed 1 --seconds 1 --trace 0
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! The binaries are looked up in `PERFBENCH_BIN_DIR`, else in the
//! `release` directory next to this test's own build.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn bin_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("PERFBENCH_BIN_DIR") {
        return PathBuf::from(dir);
    }
    let exe = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    exe.parent().and_then(Path::parent).expect("target dir").join("release")
}

fn names(spec: &serde::Value, key: &str) -> Vec<String> {
    let Some(serde::Value::Seq(items)) = spec.get(key) else {
        panic!("BENCHMARK.json lacks {key}")
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(serde::Value::Str(s)) => s.clone(),
            _ => panic!("{key} entry without a name"),
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric() {
    let spec_path = bench_dir().join("..").join("BENCHMARK.json");
    let spec: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(&spec_path).expect("read BENCHMARK.json"))
            .expect("parse");
    let bins = bin_dir();
    assert!(
        bins.join("predictd").exists(),
        "no predictd in {}: run perfbench/run.sh once, or set PERFBENCH_BIN_DIR",
        bins.display()
    );
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let mut workloads = names(&spec, "workloads");
    workloads.extend(["churn_schedule".to_string(), "gateway_fanout".to_string()]);
    for workload in workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", &workload, "--seed", "1", "--seconds", "1", "--trace", trace])
                .env("PERFBENCH_BIN_DIR", &bins)
                .env("PERFBENCH_TMP", &tmp)
                .env("PERFBENCH_DIR", bench_dir())
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result: serde::Value = serde_json::from_str(last).expect("result line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&serde::Value::Bool(true)),
                "{workload}: {stdout}"
            );
            let Some(serde::Value::Map(metrics)) = result.get("metrics") else {
                panic!("no metrics")
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, names(&spec, key), "{workload} trace {trace}");
            for (name, m) in metrics {
                assert!(
                    matches!(m.get("value"), Some(serde::Value::Float(_) | serde::Value::Int(_))),
                    "{workload}: {name} is not a number"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
