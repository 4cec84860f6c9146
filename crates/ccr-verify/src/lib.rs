//! `ccr-verify` — the workspace's static-analysis gate.
//!
//! The CCR-EDF repo's core claims (bit-identical replay for any thread
//! count, an allocation-free slot engine, picosecond-exact deadline
//! arithmetic) are *invariants of the source*, not just properties a test
//! happens to observe. This crate enforces them statically:
//!
//! * [`rules`] — nine CCR-specific rules over a hand-rolled lexer (the
//!   workspace is registry-free, so no `syn`): hot-path allocation,
//!   blocking and overflow walks, unit-dimension mixing, nondeterminism,
//!   time casts, unwraps in library code, protocol pins, and dead public
//!   functions;
//! * [`deps`] — an offline dependency/licensing audit (the `cargo-deny`
//!   stand-in);
//! * an allow-marker mechanism (`// ccr-verify: allow(rule) -- reason`)
//!   that makes every intentional exception machine-readable and
//!   self-explaining.
//!
//! Run it as `cargo run -p ccr-verify` from anywhere in the workspace; it
//! exits non-zero on any finding. `scripts/check.sh` and the CI `verify`
//! job both gate on it.

pub mod callgraph;
pub mod deps;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;

use model::FileModel;
use rules::{Finding, RuleConfig};
use std::path::{Path, PathBuf};

/// The result of one whole-workspace run.
pub struct Report {
    /// All surviving findings, sorted by path and line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of function items indexed.
    pub fns_indexed: usize,
    /// Number of allow-markers that suppressed a finding.
    pub markers_honoured: usize,
}

/// Recursively collect `.rs` files under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Crate package name from a `Cargo.toml`, if readable.
fn package_name(manifest: &Path) -> Option<String> {
    let text = std::fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Find the workspace root: walk up from `start` until a `Cargo.toml`
/// containing `[workspace]` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Parse every `.rs` file under `dir` as part of crate `name`, with paths
/// relative to `root`.
fn parse_tree(root: &Path, dir: &Path, name: &str, out: &mut Vec<FileModel>) {
    let mut files = Vec::new();
    rs_files(dir, &mut files);
    for path in files {
        if let Ok(raw) = std::fs::read_to_string(&path) {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(FileModel::parse(rel, name, raw));
        }
    }
}

/// Member crate directories under `crates/`, sorted.
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return Vec::new();
    };
    let mut dirs: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|d| d.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// Parse all workspace sources into [`FileModel`]s. Returns the models and
/// every member manifest (for the deps audit).
pub fn load_workspace(root: &Path) -> (Vec<FileModel>, Vec<PathBuf>) {
    let mut models = Vec::new();
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in crate_dirs(root) {
        let manifest = dir.join("Cargo.toml");
        let name = package_name(&manifest).unwrap_or_else(|| "unknown".into());
        manifests.push(manifest);
        parse_tree(root, &dir.join("src"), &name, &mut models);
    }
    // Root facade crate: src/ only (tests/ and examples/ are test code by
    // definition and exempt from the library rules).
    let root_name =
        package_name(&root.join("Cargo.toml")).unwrap_or_else(|| "workspace-root".into());
    parse_tree(root, &root.join("src"), &root_name, &mut models);
    (models, manifests)
}

/// Parse the code that only calls into the workspace: the examples, every
/// crate's benches and the perfbench workloads. Only the `dead-pub` rule
/// reads these, as entry points.
pub fn load_callers(root: &Path) -> Vec<FileModel> {
    let mut callers = Vec::new();
    parse_tree(root, &root.join("examples"), "examples", &mut callers);
    for dir in crate_dirs(root) {
        parse_tree(root, &dir.join("benches"), "benches", &mut callers);
    }
    parse_tree(root, &root.join("perfbench/src"), "perfbench", &mut callers);
    callers
}

/// Run the full gate over the workspace at `root`.
pub fn run(root: &Path, cfg: &RuleConfig) -> Report {
    let (models, manifests) = load_workspace(root);
    let files_scanned = models.len();
    let fns_indexed = models.iter().map(|m| m.fns.len()).sum();
    let total_markers: usize = models.iter().map(|m| m.markers.len()).sum();

    let mut findings = rules::run_all(&models, cfg);
    findings.extend(rules::rule_protocol_pin(root, &models, cfg));
    findings.extend(rules::rule_dead_pub(&models, &load_callers(root), cfg));
    findings.extend(deps::audit(root, &manifests));
    findings.sort();

    let unused_marker_findings = findings
        .iter()
        .filter(|f| f.rule == rules::RULE_MARKER)
        .count();
    Report {
        findings,
        files_scanned,
        fns_indexed,
        markers_honoured: total_markers.saturating_sub(unused_marker_findings),
    }
}
