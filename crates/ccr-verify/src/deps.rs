//! Offline dependency audit — the registry-less stand-in for `cargo-deny`.
//!
//! The workspace's supply-chain policy is simple and strict: **zero
//! mandatory external dependencies**. Every dependency edge must be a
//! `path` dependency onto another workspace member. (`loom` lives only in
//! the out-of-workspace `verify/loom` model-check crate, which this audit
//! does not read.) The audit checks:
//!
//! * every `[dependencies]`/`[dev-dependencies]` entry of every member is
//!   path-based;
//! * every member inherits or declares a license;
//! * `Cargo.lock` contains only workspace members (no surprise external
//!   packages, hence no duplicate-version or advisory surface at all).
//!
//! When a real `cargo-deny` binary is available (CI), `scripts/check.sh`
//! additionally runs it with `deny.toml`; this audit keeps the same
//! guarantees enforceable on a fully offline checkout.

use crate::rules::{Finding, RULE_DEPS};
use std::collections::BTreeSet;
use std::path::Path;

/// Parse very simple TOML: returns `(section, key, value)` triples.
/// Handles exactly the subset Cargo.toml files in this workspace use
/// (no arrays-of-tables values spanning lines besides inline tables).
fn toml_entries(text: &str) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            // `[package]`, `[[package]]`, `[workspace.dependencies]` …
            section = line
                .trim_start_matches('[')
                .trim_end_matches(']')
                .trim()
                .trim_matches('"')
                .to_string();
            continue;
        }
        if let Some(eq) = line.find('=') {
            let key = line[..eq].trim().trim_matches('"').to_string();
            let val = line[eq + 1..].trim().to_string();
            out.push((section.clone(), key, val));
        }
    }
    out
}

/// Audit one member manifest.
fn audit_manifest(path: &Path, findings: &mut Vec<Finding>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        findings.push(Finding {
            path: path.display().to_string(),
            line: 1,
            rule: RULE_DEPS,
            message: "manifest unreadable".into(),
            snippet: String::new(),
        });
        return;
    };
    let entries = toml_entries(&text);
    let mut has_license = false;
    for (section, key, val) in &entries {
        if section == "package" && (key == "license" || key == "license.workspace") {
            has_license = true;
        }
        if key == "license" && section == "package" {
            has_license = true;
        }
        let dep_section = section == "dependencies"
            || section == "dev-dependencies"
            || section == "build-dependencies"
            || section == "workspace.dependencies";
        if !dep_section {
            continue;
        }
        // `ccr-sim.workspace = true` arrives as a dotted key.
        let ok = val.contains("path")
            || val.contains("workspace = true")
            || (key.ends_with(".workspace") && val == "true");
        if !ok {
            findings.push(Finding {
                path: path.display().to_string(),
                line: 1,
                rule: RULE_DEPS,
                message: format!(
                    "dependency `{key}` is not a path/workspace dependency: the workspace \
                     builds with zero registry access"
                ),
                snippet: format!("{key} = {val}"),
            });
        }
    }
    // `license` may be inherited as `license.workspace = true`, written as
    // a dotted key inside [package].
    if !has_license
        && !entries
            .iter()
            .any(|(s, k, _)| s == "package" && k.starts_with("license"))
    {
        findings.push(Finding {
            path: path.display().to_string(),
            line: 1,
            rule: RULE_DEPS,
            message: "package declares no license (add `license.workspace = true`)".into(),
            snippet: String::new(),
        });
    }
}

/// Audit `Cargo.lock`: only workspace members may appear, each exactly once.
fn audit_lock(root: &Path, members: &BTreeSet<String>, findings: &mut Vec<Finding>) {
    let lock_path = root.join("Cargo.lock");
    let Ok(text) = std::fs::read_to_string(&lock_path) else {
        return; // a missing lock is fine (fresh checkout)
    };
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (section, key, val) in toml_entries(&text) {
        if section != "package" || key != "name" {
            continue;
        }
        let name = val.trim_matches('"').to_string();
        if !members.contains(&name) {
            findings.push(Finding {
                path: lock_path.display().to_string(),
                line: 1,
                rule: RULE_DEPS,
                message: format!(
                    "Cargo.lock contains non-workspace package `{name}`: external \
                     dependencies are forbidden"
                ),
                snippet: format!("name = \"{name}\""),
            });
        }
        if !seen.insert(name.clone()) {
            findings.push(Finding {
                path: lock_path.display().to_string(),
                line: 1,
                rule: RULE_DEPS,
                message: format!("duplicate versions of `{name}` in Cargo.lock"),
                snippet: format!("name = \"{name}\""),
            });
        }
    }
}

/// Run the whole dependency audit for a workspace rooted at `root`, given
/// the member manifests found by the scanner.
pub fn audit(root: &Path, manifests: &[std::path::PathBuf]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut members: BTreeSet<String> = BTreeSet::new();
    for m in manifests {
        if let Ok(text) = std::fs::read_to_string(m) {
            for (section, key, val) in toml_entries(&text) {
                if section == "package" && key == "name" {
                    members.insert(val.trim_matches('"').to_string());
                }
            }
        }
    }
    for m in manifests {
        audit_manifest(m, &mut findings);
    }
    audit_lock(root, &members, &mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_parses_sections_and_keys() {
        let e =
            toml_entries("[package]\nname = \"x\"\n[dependencies]\nfoo = { path = \"../foo\" }\n");
        assert!(e.contains(&("package".into(), "name".into(), "\"x\"".into())));
        assert_eq!(e[1].0, "dependencies");
    }

    #[test]
    fn external_dep_is_flagged() {
        let dir = std::env::temp_dir().join("ccr_verify_deps_test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let manifest = dir.join("Cargo.toml");
        for (name, dep) in [
            ("rand", "rand = \"0.8\""),
            ("serde", "serde = { version = \"1\", optional = true }"),
        ] {
            std::fs::write(
                &manifest,
                format!("[package]\nname = \"evil\"\nlicense = \"MIT\"\n[dependencies]\n{dep}\n"),
            )
            .expect("write manifest");
            let findings = audit(&dir, std::slice::from_ref(&manifest));
            assert!(
                findings
                    .iter()
                    .any(|f| f.rule == RULE_DEPS && f.message.contains(&format!("`{name}`"))),
                "{dep}: {findings:?}"
            );
        }
    }
}
