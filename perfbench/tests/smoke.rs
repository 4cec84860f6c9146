//! Smoke test of the benchmark at a tiny size: every metric `BENCHMARK.json`
//! names is printed with its unit, every workload prints its own end-to-end
//! metrics, and two runs of one seed give identical counts and digest.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [(&str, &str, &str); 5] = [
    ("fabric_soak", "slots_per_s", "slot_us"),
    ("fabric_sparse", "slots_per_s", "slot_us"),
    ("gateway_overload", "frames_per_s", "datagram"),
    ("admission_churn", "admit_ops_per_s", "admit"),
    ("synthesis", "synth_matrices_per_s", "matrix"),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section; the file
/// keeps one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.lines()
        .filter_map(|l| {
            let name = field(l, "name")?;
            let unit = field(l, "unit")?;
            Some((name, unit))
        })
        .collect()
}

/// The string value of `"key": "value"` on one line.
fn field(line: &str, key: &str) -> Option<String> {
    let at = line.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = line[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Run one tiny benchmark; returns (report line, result line).
fn run(workload: &str, seed: u64, trace: bool) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ccr-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.001", "--scale", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = lines.next().expect("result line").to_string();
    let report = lines.next().expect("report line").to_string();
    assert!(result.starts_with("{\"correct\":true,"), "{result}");
    assert!(report.starts_with("{\"report\":"), "{report}");
    (report, result)
}

fn has_metric(line: &str, name: &str, unit: &str) -> bool {
    let key = format!("\"{name}\":{{\"value\":");
    line.find(&key).is_some_and(|at| {
        let rest = &line[at + key.len()..];
        rest[..rest.find('}').unwrap_or(rest.len())].contains(&format!("\"unit\":\"{unit}\""))
    })
}

/// The JSON value following `"key":` up to the matching close.
fn section<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line.find(&format!("\"{key}\":")).expect("key present") + key.len() + 3;
    let rest = &line[at..];
    let end = if rest.starts_with('{') {
        rest.find('}').map_or(rest.len(), |i| i + 1)
    } else {
        rest.find([',', '}']).unwrap_or(rest.len())
    };
    &rest[..end]
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for (workload, rate, latency) in WORKLOADS {
        let (report, result) = run(workload, 7, false);
        assert_eq!(result.matches("{\"value\":").count(), e2e.len(), "{result}");
        for (name, unit) in &e2e {
            assert!(
                has_metric(&result, name, unit),
                "{workload}: {name} [{unit}]"
            );
        }
        for (name, unit) in [
            ("setup_s", "s"),
            ("setup_median_s", "s"),
            ("op_time_min_us", "us"),
            (rate, "1/s"),
            (&format!("{latency}_p50_us"), "us"),
            (&format!("{latency}_p99_us"), "us"),
            ("failed_share", "ratio"),
            ("peak_rss_mb", "MB"),
        ] {
            assert!(has_metric(&report, name, unit), "{workload} report: {name}");
        }
        for key in ["cpu", "nproc", "rustc", "git_rev", "threads", "digest"] {
            assert!(report.contains(&format!("\"{key}\":")), "{workload}: {key}");
        }
        let (report, result) = run(workload, 7, true);
        assert_eq!(
            result.matches("{\"value\":").count(),
            layers.len(),
            "{result}"
        );
        for (name, unit) in &layers {
            assert!(
                has_metric(&result, name, unit),
                "{workload}: {name} [{unit}]"
            );
            assert!(has_metric(&report, name, unit), "{workload} report: {name}");
        }
    }
}

#[test]
fn one_seed_reproduces_counts_and_digest() {
    for (workload, _, _) in WORKLOADS {
        let (a, _) = run(workload, 11, false);
        let (b, _) = run(workload, 11, false);
        assert_eq!(section(&a, "digest"), section(&b, "digest"), "{workload}");
        assert_eq!(section(&a, "counts"), section(&b, "counts"), "{workload}");
        let (c, _) = run(workload, 12, false);
        assert_ne!(section(&a, "digest"), section(&c, "digest"), "{workload}");
    }
}
