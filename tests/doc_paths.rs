//! The architecture document names real files: every `crates/…` path
//! ARCHITECTURE.md mentions exists in the tree, so a rename or deletion
//! that leaves the document behind fails here.

use std::path::Path;

/// Every `crates/…` path in `text`: the run of path characters from a
/// `crates/` that starts a word, without a trailing full stop. A line
/// suffix (`batch.rs:42`) is not a path character, so it is dropped.
fn crate_paths(text: &str) -> Vec<&str> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut paths = Vec::new();
    for (at, _) in text.match_indices("crates/") {
        if text[..at].chars().next_back().is_some_and(is_path) {
            continue;
        }
        let rest = &text[at..];
        let end = rest.find(|c| !is_path(c)).unwrap_or(rest.len());
        paths.push(rest[..end].trim_end_matches('.'));
    }
    paths
}

#[test]
fn every_crates_path_in_architecture_exists() {
    assert_eq!(
        crate_paths("see `crates/a/b.rs:12`, my/crates/x and crates/c."),
        ["crates/a/b.rs", "crates/c"]
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("ARCHITECTURE.md"))
        .expect("ARCHITECTURE.md sits at the repository root");
    let paths = crate_paths(&doc);
    assert!(!paths.is_empty(), "ARCHITECTURE.md names no crates/ path");
    let missing: Vec<&str> = paths
        .into_iter()
        .filter(|p| !root.join(p).exists())
        .collect();
    assert!(
        missing.is_empty(),
        "ARCHITECTURE.md names paths that do not exist: {missing:?}"
    );
}
