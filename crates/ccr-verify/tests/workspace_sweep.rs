//! The gate run against the *real* workspace, in-process.
//!
//! These tests pin three load-bearing properties of the verifier:
//!
//! 1. **Zero findings with every rule armed.** The workspace source is the
//!    positive fixture; any new violation (or stale marker) fails here
//!    before CI ever runs the binary.
//! 2. **Every allow-marker is honoured.** The exact count is asserted so a
//!    marker that silently stops matching (rule renamed, line reshuffled
//!    past its target) shows up as a diff in this number, not as quiet
//!    rot.
//! 3. **Byte-identical reports.** Two independent runs must serialize to
//!    the same JSON — the baseline-diff gate in CI is only sound if the
//!    report is deterministic.

use ccr_verify::{find_workspace_root, report, rules, run};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    find_workspace_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

#[test]
fn workspace_sweep_is_clean_with_all_rules_armed() {
    let rep = run(&workspace_root(), &rules::RuleConfig::workspace());
    assert!(
        rep.findings.is_empty(),
        "workspace must verify clean:\n{}",
        rep.findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
    // Sanity: the walk actually saw the workspace, not an empty dir.
    assert!(rep.files_scanned > 100, "scanned {}", rep.files_scanned);
    assert!(rep.fns_indexed > 1000, "indexed {}", rep.fns_indexed);
}

/// Marker audit: every `// ccr-verify: allow(..)` / `hot_path` /
/// `event_path` marker in the tree is live. If this number moves, either a
/// marker was added/removed on purpose (update the constant, re-justify in
/// the diff) or one rotted (fix the marker).
#[test]
fn every_allow_marker_is_honoured() {
    let rep = run(&workspace_root(), &rules::RuleConfig::workspace());
    assert_eq!(
        rep.markers_honoured, 12,
        "marker census drifted — audit `grep -rn 'ccr-verify:' crates/ src/`"
    );
}

/// `dead-pub` roots its walk at the code that only calls the workspace. A
/// path typo that silently dropped perfbench, the examples or the benches
/// would flag what only they reach, so the caller set is pinned here.
#[test]
fn dead_pub_callers_include_perfbench_an_example_and_a_bench() {
    let callers = ccr_verify::load_callers(&workspace_root());
    let paths: Vec<String> = callers
        .iter()
        .map(|m| m.path.display().to_string())
        .collect();
    assert!(
        paths.iter().any(|p| p == "perfbench/src/main.rs"),
        "{paths:?}"
    );
    assert!(
        paths.iter().any(|p| p.starts_with("examples/")),
        "{paths:?}"
    );
    assert!(paths.iter().any(|p| p.contains("/benches/")), "{paths:?}");
}

#[test]
fn reports_are_byte_identical_across_runs() {
    let root = workspace_root();
    let cfg = rules::RuleConfig::workspace();
    let a = report::to_json(&run(&root, &cfg));
    let b = report::to_json(&run(&root, &cfg));
    assert_eq!(a, b, "report serialization must be deterministic");
}

/// The checked-in baseline matches reality: an empty diff in both
/// directions. (CI re-checks this with the binary; this keeps the failure
/// local and fast.)
#[test]
fn checked_in_baseline_matches_the_tree() {
    let root = workspace_root();
    let baseline = std::fs::read_to_string(root.join("verify/baseline.json"))
        .expect("verify/baseline.json is checked in");
    let rep = run(&root, &rules::RuleConfig::workspace());
    let (new, fixed) = report::diff_baseline(&rep, &baseline);
    assert!(
        new.is_empty() && fixed.is_empty(),
        "baseline drift — new: {new:?}, fixed (stale entries): {fixed:?}\n\
         regenerate with `cargo run -p ccr-verify -- --emit json --write-baseline verify/baseline.json`"
    );
}
