//! A tiny run of every workload, untraced and traced: each must find no
//! error (`failed == 0`, so `error_rate == 0`) and print exactly the
//! metrics `BENCHMARK.json` declares for its mode, with their units.
//!
//! Run: `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::process::Command;

use etsc_bench::json::{parse, Json};

fn member<'a>(json: &'a Json, key: &str) -> &'a Json {
    match json {
        Json::Obj(members) => members
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no {key:?} in {json:?}")),
        other => panic!("expected an object holding {key:?}, got {other:?}"),
    }
}

fn string(json: &Json) -> &str {
    match json {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let json = parse(&text).expect("BENCHMARK.json parses");
    let Json::Arr(metrics) = member(&json, section) else {
        panic!("{section} is not an array");
    };
    metrics
        .iter()
        .map(|m| {
            (
                string(member(m, "name")).to_string(),
                string(member(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--size",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout
        .lines()
        .last()
        .expect("perfbench prints a result line");
    let result = parse(last).expect("the result line is JSON");
    assert_eq!(member(&result, "correct"), &Json::Bool(true));
    assert_eq!(
        member(&result, "failed"),
        &Json::Num(0.0),
        "error_rate must be 0"
    );

    let Json::Obj(metrics) = member(&result, "metrics") else {
        panic!("metrics is not an object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), string(member(m, "unit")).to_string()))
        .collect();
    let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
    let mut got = printed;
    want.sort();
    got.sort();
    assert_eq!(
        got, want,
        "{workload} (trace {trace}) metrics differ from BENCHMARK.json"
    );
    for (name, m) in metrics {
        assert!(
            matches!(member(m, "value"), Json::Num(v) if v.is_finite()),
            "{name} is not a finite number"
        );
    }
}

#[test]
fn anchor_fanout() {
    smoke("anchor-fanout", false);
    smoke("anchor-fanout", true);
}

#[test]
fn many_streams_checkpoint() {
    smoke("many-streams-checkpoint", false);
    smoke("many-streams-checkpoint", true);
}

#[test]
fn cluster_loopback() {
    smoke("cluster-loopback", false);
    smoke("cluster-loopback", true);
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
