//! Negative tests: every seeded violation in `fixtures/` must be detected
//! by exactly the annotated rule, and nothing else may fire.
//!
//! Annotation grammar (trybuild-style):
//! * `//~ ERROR <rule>`  — a finding of `<rule>` on this line
//! * `//~^ ERROR <rule>` — a finding of `<rule>` on the previous line

use ccr_verify::model::FileModel;
use ccr_verify::rules::{rule_dead_pub, rule_protocol_pin, run_all, ProtocolPin, RuleConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture_config() -> RuleConfig {
    let one = |s: &str| -> BTreeSet<String> { std::iter::once(s.to_string()).collect() };
    RuleConfig {
        det_crates: one("fixture"),
        lib_crates: one("fixture"),
        hot_roots: vec![("fixture".into(), "step_slot".into())],
        pump_roots: vec![("fixture".into(), "ingress".into())],
        cast_exempt: Vec::new(),
        det_exempt: Vec::new(),
        protocol_pins: Vec::new(),
        declared_api: &[],
    }
}

fn expectations(raw: &str) -> BTreeSet<(String, usize)> {
    let mut out = BTreeSet::new();
    for (i, line) in raw.lines().enumerate() {
        let line_no = i + 1;
        if let Some(pos) = line.find("//~") {
            let rest = line[pos + 3..].trim_start();
            let (target, rest) = if let Some(r) = rest.strip_prefix('^') {
                (line_no - 1, r.trim_start())
            } else {
                (line_no, rest)
            };
            let rule = rest
                .strip_prefix("ERROR")
                .expect("annotation must read `//~ ERROR <rule>`")
                .trim()
                .to_string();
            out.insert((rule, target));
        }
    }
    out
}

fn fixture_findings(path: &Path) -> Vec<ccr_verify::rules::Finding> {
    let raw = std::fs::read_to_string(path).expect("fixture readable");
    let model = FileModel::parse(path.to_path_buf(), "fixture", raw);
    run_all(&[model], &fixture_config())
}

fn check_fixture(path: &Path) {
    assert_annotated(path, &fixture_findings(path));
}

fn assert_annotated(path: &Path, findings: &[ccr_verify::rules::Finding]) {
    let raw = std::fs::read_to_string(path).expect("fixture readable");
    let expected = expectations(&raw);
    let actual: BTreeSet<(String, usize)> = findings
        .iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect();
    assert_eq!(
        actual,
        expected,
        "fixture {} mismatch.\nfindings:\n{}",
        path.display(),
        findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

#[test]
fn seeded_hot_path_allocations_are_detected() {
    check_fixture(&fixture_path("hot_alloc.rs"));
}

#[test]
fn seeded_nondeterminism_is_detected() {
    check_fixture(&fixture_path("nondet.rs"));
}

#[test]
fn seeded_time_casts_are_detected() {
    check_fixture(&fixture_path("casts.rs"));
}

#[test]
fn seeded_unwraps_are_detected() {
    check_fixture(&fixture_path("unwraps.rs"));
}

#[test]
fn marker_mechanics_suppress_and_report() {
    check_fixture(&fixture_path("markers.rs"));
}

#[test]
fn event_path_functions_are_pruned_from_the_hot_walk() {
    check_fixture(&fixture_path("event_path.rs"));
}

#[test]
fn clean_fixture_stays_clean() {
    check_fixture(&fixture_path("clean.rs"));
}

#[test]
fn dyn_trait_allocation_is_caught_through_dispatch() {
    check_fixture(&fixture_path("trait_dispatch.rs"));
}

#[test]
fn seeded_blocking_calls_are_detected() {
    check_fixture(&fixture_path("blocking.rs"));
}

#[test]
fn seeded_panic_arith_is_detected() {
    check_fixture(&fixture_path("panic_arith.rs"));
}

#[test]
fn seeded_dimension_mixing_is_detected() {
    check_fixture(&fixture_path("dimension_mix.rs"));
}

/// `dead-pub` needs callers outside the library, so it runs apart from
/// `run_all`: the fixture is the library and a one-line example the root.
#[test]
fn dead_public_functions_are_detected() {
    let path = fixture_path("dead_pub.rs");
    let raw = std::fs::read_to_string(&path).expect("fixture readable");
    let lib = FileModel::parse(path.clone(), "fixture", raw);
    let example = FileModel::parse(
        PathBuf::from("examples/demo.rs"),
        "examples",
        "fn main() { fixture::reached_from_root(); }".into(),
    );
    let mut cfg = fixture_config();
    cfg.declared_api = &[("fixture", "declared_api", "kept")];
    assert_annotated(&path, &rule_dead_pub(&[lib], &[example], &cfg));

    // A declared entry that names no public fn is itself a finding.
    cfg.declared_api = &[("fixture", "gone", "kept")];
    let lib = FileModel::parse(path, "fixture", "pub fn gone_too() {}".into());
    let findings = rule_dead_pub(&[lib], &[], &cfg);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .any(|f| f.path.contains("declared_api fixture::gone")));
}

/// The diagnostic must let a reader audit the resolution: the chain text
/// names every hop *and* the trait-dispatch edge taken.
#[test]
fn dispatch_diagnostics_print_the_resolved_call_chain() {
    let findings = fixture_findings(&fixture_path("trait_dispatch.rs"));
    assert_eq!(findings.len(), 1);
    let msg = &findings[0].message;
    assert!(
        msg.contains("step_slot") && msg.contains("tick") && msg.contains("pick"),
        "chain names every hop: {msg}"
    );
    assert!(
        msg.contains("dyn Arb::pick -> Chatty"),
        "chain prints the dispatch edge taken: {msg}"
    );
    assert!(
        msg.contains("dyn Arb::tick -> default body"),
        "chain shows the walk went through the trait default: {msg}"
    );
}

#[test]
fn blocking_diagnostics_print_the_resolved_call_chain() {
    let findings = fixture_findings(&fixture_path("blocking.rs"));
    let park = findings
        .iter()
        .find(|f| f.message.contains("`park`"))
        .expect("park finding");
    assert!(
        park.message.contains("step_slot -> helper"),
        "chain from root to the blocking call: {}",
        park.message
    );
}

#[test]
fn every_fixture_is_covered_by_a_test() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "blocking.rs",
            "casts.rs",
            "clean.rs",
            "dead_pub.rs",
            "dimension_mix.rs",
            "event_path.rs",
            "hot_alloc.rs",
            "markers.rs",
            "nondet.rs",
            "panic_arith.rs",
            "trait_dispatch.rs",
            "unwraps.rs"
        ],
        "new fixture files need a matching #[test]"
    );
}

// ---------------------------------------------------------------------
// protocol-pin (exercised against a scratch tree: the rule reads mirror
// files from disk, since mirrors live outside the scanned crates)
// ---------------------------------------------------------------------

const PIN_ANCHOR: &str = r#"
pub mod protocol {
    pub const CLAIM: &str = "next.fetch_add(1, Ordering::Relaxed)";
}

pub fn worker(next: &std::sync::atomic::AtomicUsize) -> usize {
    use std::sync::atomic::Ordering;
    next.fetch_add(1, Ordering::Relaxed)
}
"#;

fn pin_config(mirror: &str) -> RuleConfig {
    let mut cfg = fixture_config();
    cfg.protocol_pins = vec![ProtocolPin {
        name: "claim".into(),
        anchor: "crates/sim/src/parallel.rs".into(),
        mirrors: vec![mirror.to_string()],
    }];
    cfg
}

fn pin_models(anchor_src: &str) -> Vec<FileModel> {
    vec![FileModel::parse(
        PathBuf::from("crates/sim/src/parallel.rs"),
        "fixture",
        anchor_src.to_string(),
    )]
}

fn scratch_root(tag: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("pin_{tag}"));
    std::fs::create_dir_all(&root).expect("scratch root");
    root
}

#[test]
fn protocol_pin_passes_when_anchor_and_mirror_agree() {
    let root = scratch_root("ok");
    std::fs::write(
        root.join("model.rs"),
        "fn model() { next.fetch_add(1, Ordering::Relaxed); }",
    )
    .expect("write mirror");
    let findings = rule_protocol_pin(&root, &pin_models(PIN_ANCHOR), &pin_config("model.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn protocol_pin_catches_a_drifted_mirror() {
    let root = scratch_root("drift");
    std::fs::write(
        root.join("model.rs"),
        "fn model() { next.fetch_add(1, Ordering::SeqCst); }",
    )
    .expect("write mirror");
    let findings = rule_protocol_pin(&root, &pin_models(PIN_ANCHOR), &pin_config("model.rs"));
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "protocol-pin");
    assert!(
        findings[0].message.contains("CLAIM"),
        "{}",
        findings[0].message
    );
}

#[test]
fn protocol_pin_catches_a_dead_pin_and_a_missing_mirror() {
    let root = scratch_root("dead");
    // Anchor defines the fragment but the real code drifted away from it,
    // and the mirror file does not exist at all.
    let drifted_anchor = PIN_ANCHOR.replace("fetch_add(1,", "fetch_add(2,");
    // Put the const back so only the code side is missing.
    let drifted_anchor = drifted_anchor.replace(
        "pub const CLAIM: &str = \"next.fetch_add(2, Ordering::Relaxed)\";",
        "pub const CLAIM: &str = \"next.fetch_add(1, Ordering::Relaxed)\";",
    );
    let findings = rule_protocol_pin(
        &root,
        &pin_models(&drifted_anchor),
        &pin_config("absent.rs"),
    );
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["protocol-pin", "protocol-pin"], "{findings:?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("no longer appears")));
    assert!(findings.iter().any(|f| f.message.contains("missing")));
}
