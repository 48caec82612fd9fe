//! Smoke-scale self-test of the benchmark: both workloads at tiny sizes,
//! in both modes, must pass its checks and print every metric that
//! `BENCHMARK.json` names, with its unit; a corrupted reference must be
//! caught as a failure, with a non-zero exit and no child left running;
//! a run that panics with its nodes up must reap them too.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::{Command, Output};

#[path = "../src/declared.rs"]
mod declared;

use declared::{declared, workloads};

fn run(workload: &str, trace: bool, extra: &[&str]) -> (Output, u32) {
    let workdir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&workdir).expect("scratch directory");
    let child = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--scale", "smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(&workdir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("start perfbench");
    let pid = child.id();
    (child.wait_with_output().expect("perfbench ran"), pid)
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or_default().to_string()
}

/// Processes whose command line mentions the run's scratch directory,
/// i.e. nodes and gateways the run started.
fn leftover_children(pid: u32) -> Vec<String> {
    let marker = format!(".bench_out/run-{pid}-");
    std::fs::read_dir("/proc")
        .map(|dir| {
            dir.flatten()
                .filter_map(|e| std::fs::read(e.path().join("cmdline")).ok())
                .map(|c| String::from_utf8_lossy(&c).replace('\0', " "))
                .filter(|c| c.contains(&marker))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn every_workload_passes_and_prints_every_metric_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        for w in workloads() {
            let w = w.as_str();
            let (out, _) = run(w, trace, &[]);
            let line = last_line(&out);
            assert!(
                out.status.success(),
                "{w} trace={trace} failed:\n{}\n{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{w}: {line}");
            assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{w}: {line}");
            for (name, unit) in &metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line.find(&entry).unwrap_or_else(|| panic!("{w}: {name} missing: {line}"));
                let rest = &line[at..];
                let end = rest.find('}').expect("metric object closes");
                assert!(
                    rest[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{w}: {name} lacks unit {unit}: {line}"
                );
            }
            assert_eq!(line.matches("\"value\": ").count(), metrics.len(), "{w}: extra metrics");
        }
    }
}

#[test]
fn corrupted_references_are_caught_and_leave_no_child_behind() {
    for w in workloads() {
        let w = w.as_str();
        let (out, pid) = run(w, false, &["--corrupt-reference"]);
        let line = last_line(&out);
        assert_eq!(out.status.code(), Some(1), "{w} must exit 1: {line}");
        assert!(line.starts_with("{\"correct\": false, "), "{w}: {line}");
        assert!(!line.contains("\"failed\": 0,"), "{w}: no failure counted: {line}");
        assert!(leftover_children(pid).is_empty(), "{w} left children running");
    }
}

#[test]
fn a_panicking_run_reaps_its_nodes_and_gateway() {
    let (out, pid) = run("cluster_churn", false, &["--panic-after-setup"]);
    assert!(!out.status.success(), "the run must fail");
    assert!(!last_line(&out).starts_with("{\"correct\""), "the run printed a result");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--panic-after-setup"), "the run did not reach the panic: {stderr}");
    assert!(leftover_children(pid).is_empty(), "the run left children running");
}
