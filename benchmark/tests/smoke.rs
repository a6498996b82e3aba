//! Drives the built binary the way the driver does, at smoke scale:
//! every workload, untraced and traced, must exit 0 and end with one
//! JSON line carrying exactly the declared metrics.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_rhodos-benchmark");
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// Names under `"name":` in one section of the contract, in order.
fn declared(section: &str) -> Vec<String> {
    let start = CONTRACT.find(&format!("\"{section}\"")).expect("section");
    let body = &CONTRACT[start..];
    let end = body.find(']').expect("section end");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("spawn benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.success(), stdout)
}

fn check_result_line(stdout: &str, section: &str) {
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for name in declared(section) {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "missing {name}: {last}"
        );
    }
    let other = if section == "end_to_end" {
        "per_layer"
    } else {
        "end_to_end"
    };
    for name in declared(other) {
        assert!(!last.contains(&format!("\"{name}\":")), "unexpected {name}");
    }
}

#[test]
fn every_workload_smokes_untraced_and_traced() {
    let workloads = declared("workloads");
    assert_eq!(workloads.len(), 5);
    for w in &workloads {
        let (ok, out) = run(&[
            "run",
            "--workload",
            w,
            "--seed",
            "7",
            "--trace",
            "0",
            "--smoke",
        ]);
        assert!(ok, "{w} untraced failed:\n{out}");
        assert!(out.contains("SMOKE: numbers not for comparison"));
        check_result_line(&out, "end_to_end");

        let (ok, out) = run(&[
            "run",
            "--workload",
            w,
            "--seed",
            "7",
            "--trace",
            "1",
            "--smoke",
        ]);
        assert!(ok, "{w} traced failed:\n{out}");
        check_result_line(&out, "per_layer");
        let trace = format!("{}/out/trace-{w}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&trace).expect("trace file");
        for part in ["\"ladder\": [", "\"counts\": {", "\"spans\": ["] {
            assert!(text.contains(part), "{trace} lacks {part}");
        }
    }
}

#[test]
fn same_seed_repeats_every_count_exactly() {
    let counts = |workload: &str, seed: &str| {
        let (ok, out) = run(&["run", "--workload", workload, "--seed", seed, "--smoke"]);
        assert!(ok);
        let last = out.lines().last().expect("result line").to_string();
        [
            "sim_us_per_op",
            "disk_refs_per_op",
            "disk_bytes_per_user_byte",
        ]
        .map(|m| {
            let rest = last.split(&format!("\"{m}\": ")).nth(1).expect(m);
            rest.split('}').next().expect("value").to_string()
        })
    };
    for workload in ["txn-mix", "agent-lease", "agent-stream"] {
        assert_eq!(counts(workload, "3"), counts(workload, "3"), "{workload}");
        assert_ne!(counts(workload, "3"), counts(workload, "4"), "{workload}");
    }
    // The cluster's simulated time is not a function of the seed alone
    // (its commit path iterates hash maps); its disk traffic is.
    assert_eq!(
        counts("cluster-rpc", "3")[1..],
        counts("cluster-rpc", "3")[1..]
    );
}

#[test]
fn bad_arguments_are_refused() {
    assert!(!run(&["run", "--workload", "no-such"]).0);
    assert!(!run(&["frobnicate"]).0);
    assert!(!run(&["run", "--bogus"]).0);
}
