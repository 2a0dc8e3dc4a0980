//! Audited-exception allowlist.
//!
//! `crates/xtask/lint-allow.txt` holds the findings the team has audited
//! and accepted, one per line:
//!
//! ```text
//! rule | path-suffix | line-substring | snippet-hash | justification
//! ```
//!
//! A finding is suppressed when an entry's rule matches, the finding's
//! path ends with the entry's path-suffix, the finding's source line
//! contains the line-substring, and the FNV-1a hash of the (trimmed)
//! source line equals the entry's snippet-hash. The hash pins the
//! exception to the exact audited line: if the line is edited — even to
//! a different violation containing the same substring — the entry goes
//! stale instead of silently covering the new code. The justification is
//! mandatory — an entry without one is itself a lint error, as is an
//! entry that no longer matches anything (stale exceptions must be
//! deleted, not accumulated). A stale report prints the current hash of
//! any near-miss so a deliberate re-audit is a one-line edit.

use crate::rules::Finding;

#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    pub path_suffix: String,
    pub line_substring: String,
    /// FNV-1a 64 hash of the trimmed audited source line, 16 hex chars.
    pub snippet_hash: String,
    pub justification: String,
    /// 1-based line in the allowlist file (for diagnostics).
    pub src_line: usize,
}

/// FNV-1a 64-bit hash of the trimmed snippet, as 16 lowercase hex chars.
/// FNV is not cryptographic, but the allowlist only needs to notice
/// edits, not resist adversaries — and it keeps the lint dependency-free.
pub fn snippet_hash(snippet: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in snippet.trim().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Parses the allowlist text. Malformed or justification-less entries are
/// returned as findings against the allowlist file itself.
pub fn parse_allowlist(path: &str, text: &str) -> (Vec<AllowEntry>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(5, '|').map(str::trim).collect();
        if parts.len() != 5 || parts.iter().take(4).any(|p| p.is_empty()) {
            errors.push(Finding {
                rule: "allowlist",
                path: path.to_string(),
                line: i + 1,
                message: "malformed entry; expected `rule | path-suffix | line-substring | \
                          snippet-hash | justification`"
                    .into(),
                snippet: raw.to_string(),
                call_path: Vec::new(),
            });
            continue;
        }
        if parts[4].is_empty() {
            errors.push(Finding {
                rule: "allowlist",
                path: path.to_string(),
                line: i + 1,
                message: "entry has no justification; audited exceptions must say why".into(),
                snippet: raw.to_string(),
                call_path: Vec::new(),
            });
            continue;
        }
        entries.push(AllowEntry {
            rule: parts[0].to_string(),
            path_suffix: parts[1].to_string(),
            line_substring: parts[2].to_string(),
            snippet_hash: parts[3].to_string(),
            justification: parts[4].to_string(),
            src_line: i + 1,
        });
    }
    (entries, errors)
}

/// Removes allowlisted findings. Returns the surviving findings plus one
/// `allowlist` finding per entry that matched nothing (stale exception).
pub fn apply_allowlist(
    findings: Vec<Finding>,
    entries: &[AllowEntry],
    allowlist_path: &str,
) -> Vec<Finding> {
    let mut used = vec![false; entries.len()];
    // Rule/path/substring matched but the line's hash changed: the
    // audited code was edited. Remembered per entry for the stale report.
    let mut near_miss: Vec<Option<String>> = vec![None; entries.len()];
    let mut out: Vec<Finding> = Vec::new();
    for f in findings {
        let hash = snippet_hash(&f.snippet);
        let mut suppressed = false;
        for (k, e) in entries.iter().enumerate() {
            if e.rule == f.rule
                && f.path.ends_with(&e.path_suffix)
                && f.snippet.contains(&e.line_substring)
            {
                if e.snippet_hash == hash {
                    used[k] = true;
                    suppressed = true;
                } else {
                    near_miss[k] = Some(hash.clone());
                }
            }
        }
        if !suppressed {
            out.push(f);
        }
    }
    for (k, e) in entries.iter().enumerate() {
        if !used[k] {
            let detail = match &near_miss[k] {
                Some(h) => format!(
                    "; a finding matches everything but the snippet hash — the audited line \
                     changed (current hash `{h}`); re-audit or delete"
                ),
                None => "; delete it".to_string(),
            };
            out.push(Finding {
                rule: "allowlist",
                path: allowlist_path.to_string(),
                line: e.src_line,
                message: format!(
                    "stale allowlist entry (rule `{}`, path `…{}`) matches nothing{detail}",
                    e.rule, e.path_suffix
                ),
                snippet: format!(
                    "{} | {} | {} | {}",
                    e.rule, e.path_suffix, e.line_substring, e.snippet_hash
                ),
                call_path: Vec::new(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, snippet: &str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line: 1,
            message: String::new(),
            snippet: snippet.to_string(),
            call_path: Vec::new(),
        }
    }

    #[test]
    fn snippet_hash_is_stable_and_trims() {
        assert_eq!(snippet_hash("x.unwrap();"), snippet_hash("  x.unwrap();\t"));
        assert_ne!(snippet_hash("x.unwrap();"), snippet_hash("y.unwrap();"));
        assert_eq!(snippet_hash("").len(), 16);
    }

    #[test]
    fn parse_rejects_missing_justification() {
        let h = snippet_hash("x.expect(\"ok\");");
        let (entries, errors) = parse_allowlist(
            "lint-allow.txt",
            &format!(
                "# comment\n\nno_unwrap | spec/src/a.rs | .expect( | {h} | parent exists by construction\nno_unwrap | spec/src/b.rs | .unwrap() | {h} |\nbad-line\n"
            ),
        );
        assert_eq!(entries.len(), 1);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert_eq!(errors[0].line, 4);
        assert_eq!(errors[1].line, 5);
    }

    #[test]
    fn apply_suppresses_and_flags_stale() {
        let h = snippet_hash("x.expect(\"ok\");");
        let (entries, errors) = parse_allowlist(
            "lint-allow.txt",
            &format!(
                "no_unwrap | spec/src/a.rs | .expect(\"ok\") | {h} | audited\nno_unwrap | spec/src/gone.rs | .unwrap() | {h} | audited\n"
            ),
        );
        assert!(errors.is_empty());
        let findings = vec![
            finding("no_unwrap", "crates/spec/src/a.rs", "x.expect(\"ok\");"),
            finding("no_unwrap", "crates/spec/src/a.rs", "y.unwrap();"),
        ];
        let out = apply_allowlist(findings, &entries, "crates/xtask/lint-allow.txt");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.snippet.contains("y.unwrap")));
        assert!(out
            .iter()
            .any(|f| f.rule == "allowlist" && f.message.contains("stale")));
    }

    #[test]
    fn edited_line_goes_stale_even_when_the_substring_still_matches() {
        // The pre-hash bug: rule + path + substring all still match the
        // *edited* line, so the old format kept suppressing it. With the
        // hash pinned to the audited text, the entry goes stale and the
        // edited line's finding surfaces.
        let h = snippet_hash("a.unwrap(); // audited: cannot fail");
        let (entries, errors) = parse_allowlist(
            "lint-allow.txt",
            &format!("no_unwrap | spec/src/a.rs | .unwrap() | {h} | audited\n"),
        );
        assert!(errors.is_empty());
        let findings = vec![finding(
            "no_unwrap",
            "crates/spec/src/a.rs",
            "b.unwrap(); // new code, same substring",
        )];
        let out = apply_allowlist(findings, &entries, "crates/xtask/lint-allow.txt");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.snippet.contains("b.unwrap")));
        let stale = out
            .iter()
            .find(|f| f.rule == "allowlist")
            .expect("stale entry reported");
        assert!(stale.message.contains("current hash"), "{}", stale.message);
    }
}
