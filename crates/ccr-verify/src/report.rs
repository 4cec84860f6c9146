//! Machine-readable reports: `--emit json`, stable finding IDs, and the
//! checked-in baseline diff.
//!
//! CI wants to *diff* findings, not grep stdout: a new finding should fail
//! the build even when a hundred pre-existing ones are grandfathered, and a
//! fixed finding should be removable from the baseline without touching
//! anything else. That needs IDs that survive unrelated edits:
//!
//! * **not** the line number (any edit above the finding moves it), so the
//!   ID hashes `rule | path | snippet | occurrence-index` — the
//!   occurrence-index disambiguates identical snippets in one file and is
//!   counted per (rule, path, snippet) triple, so inserting an unrelated
//!   finding does not renumber the rest;
//! * hashed with FNV-1a 64 (dependency-free, stable across platforms and
//!   releases — `DefaultHasher` explicitly guarantees neither).
//!
//! The JSON is hand-rolled and canonical: findings pre-sorted, keys in a
//! fixed order, strings escaped per RFC 8259. Two runs over the same tree
//! produce byte-identical output (asserted by a workspace test), so the
//! baseline can be compared with `cmp` and stored in git. It holds only
//! what the gate diffs, the findings: the scan counters (files, fns,
//! markers) change with every edit and nothing checks them, so they stay
//! in the text summary line and out of the checked-in file.

use crate::rules::Finding;
use crate::Report;
use std::collections::{BTreeMap, BTreeSet};

/// FNV-1a 64-bit — tiny, stable, good enough for content addressing a few
/// hundred findings (collisions would need ~2³² of them).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The stable ID of a finding: `rule|path|snippet|occurrence`, hashed.
pub fn finding_id(f: &Finding, occurrence: usize) -> String {
    let key = format!("{}|{}|{}|{}", f.rule, f.path, f.snippet.trim(), occurrence);
    format!("{:016x}", fnv1a(key.as_bytes()))
}

/// Assign every finding its stable ID, in report order.
pub fn finding_ids(findings: &[Finding]) -> Vec<String> {
    let mut seen: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    findings
        .iter()
        .map(|f| {
            let key = (
                f.rule.to_string(),
                f.path.clone(),
                f.snippet.trim().to_string(),
            );
            let n = seen.entry(key).or_insert(0);
            let id = finding_id(f, *n);
            *n += 1;
            id
        })
        .collect()
}

/// Escape a string per RFC 8259.
fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialize a whole report as canonical JSON (trailing newline, so the
/// file is diff- and POSIX-friendly when checked in).
pub fn to_json(report: &Report) -> String {
    let ids = finding_ids(&report.findings);
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str("  \"version\": 2,\n");
    out.push_str("  \"findings\": [");
    for (i, (f, id)) in report.findings.iter().zip(&ids).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str("\"id\": ");
        esc(id, &mut out);
        out.push_str(", \"rule\": ");
        esc(f.rule, &mut out);
        out.push_str(", \"path\": ");
        esc(&f.path, &mut out);
        out.push_str(&format!(", \"line\": {}", f.line));
        out.push_str(", \"message\": ");
        esc(&f.message, &mut out);
        out.push_str(", \"snippet\": ");
        esc(f.snippet.trim(), &mut out);
        out.push('}');
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Extract the finding IDs from a report JSON produced by [`to_json`].
/// This is a scraper for our own canonical format, not a JSON parser: it
/// reads every `"id": "<16 hex>"` pair.
pub fn ids_in_json(json: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut from = 0;
    while let Some(hit) = json[from..].find("\"id\": \"") {
        let start = from + hit + 7;
        from = start;
        if let Some(end) = json[start..].find('"') {
            let id = &json[start..start + end];
            if id.len() == 16 && id.bytes().all(|b| b.is_ascii_hexdigit()) {
                out.insert(id.to_string());
            }
        }
    }
    out
}

/// Compare a fresh report against the checked-in baseline. Returns
/// `(new, fixed)`: IDs present now but not in the baseline, and IDs in the
/// baseline that no longer occur (stale grandfathering — also an error, so
/// the baseline always reflects reality).
pub fn diff_baseline(report: &Report, baseline_json: &str) -> (Vec<String>, Vec<String>) {
    let current: BTreeSet<String> = finding_ids(&report.findings).into_iter().collect();
    let baseline = ids_in_json(baseline_json);
    let new = current.difference(&baseline).cloned().collect();
    let fixed = baseline.difference(&current).cloned().collect();
    (new, fixed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: usize, snippet: &str) -> Finding {
        Finding {
            path: path.into(),
            line,
            rule,
            message: "m".into(),
            snippet: snippet.into(),
        }
    }

    fn report(findings: Vec<Finding>) -> Report {
        Report {
            findings,
            files_scanned: 2,
            fns_indexed: 10,
            markers_honoured: 1,
        }
    }

    #[test]
    fn ids_survive_line_drift() {
        let a = finding("r", "p.rs", 10, "let x = y;");
        let mut b = a.clone();
        b.line = 99; // unrelated edits above moved it
        assert_eq!(finding_id(&a, 0), finding_id(&b, 0));
    }

    #[test]
    fn duplicate_snippets_get_distinct_ids() {
        let fs = vec![
            finding("r", "p.rs", 1, "x.lock()"),
            finding("r", "p.rs", 5, "x.lock()"),
        ];
        let ids = finding_ids(&fs);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn json_roundtrips_ids_and_is_stable() {
        let rep = report(vec![
            finding("r", "a \"quoted\" path.rs", 1, "snippet with \\ and \t"),
            finding("s", "b.rs", 2, "y"),
        ]);
        let j1 = to_json(&rep);
        let j2 = to_json(&rep);
        assert_eq!(j1, j2, "serialization is deterministic");
        assert_eq!(
            ids_in_json(&j1),
            finding_ids(&rep.findings).into_iter().collect()
        );
        assert!(j1.ends_with("}\n"));
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let j = to_json(&report(Vec::new()));
        assert_eq!(j, "{\n  \"version\": 2,\n  \"findings\": []\n}\n");
        assert!(ids_in_json(&j).is_empty());
    }

    #[test]
    fn baseline_diff_reports_new_and_fixed() {
        let old = report(vec![
            finding("r", "a.rs", 1, "x"),
            finding("r", "b.rs", 2, "y"),
        ]);
        let baseline = to_json(&old);
        let now = report(vec![
            finding("r", "a.rs", 1, "x"),
            finding("r", "c.rs", 3, "z"),
        ]);
        let (new, fixed) = diff_baseline(&now, &baseline);
        assert_eq!(new.len(), 1, "c.rs finding is new");
        assert_eq!(fixed.len(), 1, "b.rs finding is gone but grandfathered");
        let (n2, f2) = diff_baseline(&old, &baseline);
        assert!(n2.is_empty() && f2.is_empty());
    }
}
