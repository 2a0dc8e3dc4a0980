//! Parser trust battery: the call-graph rule is only as strong as the
//! in-repo parser under it, so this suite pins three properties.
//!
//! 1. Every workspace source file lexes and parses with **zero**
//!    diagnostics — a file the parser loses sync on is a file the call
//!    graph silently under-covers.
//! 2. The lexer round-trips: printing a token stream and re-lexing the
//!    print yields the identical `(kind, text)` stream, on every
//!    workspace file.
//! 3. The same round-trip holds on proptest-generated token soup, and
//!    the parser terminates without panicking on it (diagnostics are
//!    allowed — soup is rarely well-formed; crashing is not).

use proptest::prelude::*;
use specinfer_xtask::parse::{lex, parse_file, Tok, TokKind};
use specinfer_xtask::scan::scan_source;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("xtask lives two levels below the workspace root")
}

/// Every `.rs` file under `crates/`, as (workspace-relative path, text).
/// Fixtures and build output are skipped, mirroring the workspace scan.
fn workspace_sources() -> Vec<(String, String)> {
    let root = workspace_root();
    let mut out = Vec::new();
    walk(&root, &root.join("crates"), &mut out);
    assert!(
        out.len() > 20,
        "workspace walk looks broken: only {} files",
        out.len()
    );
    out
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("readable dir").flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk(root, &path, out);
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("under root")
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path).expect("readable source");
            out.push((rel, text));
        }
    }
}

/// Prints a token stream: tokens separated by spaces, original line
/// structure preserved (so line-oriented scanning stays comparable).
fn print_toks(toks: &[Tok]) -> String {
    let mut out = String::new();
    let mut line = 1;
    for t in toks {
        while line < t.line {
            out.push('\n');
            line += 1;
        }
        out.push(' ');
        out.push_str(&t.text);
    }
    out
}

fn stream(toks: &[Tok]) -> Vec<(TokKind, &str)> {
    toks.iter().map(|t| (t.kind, t.text.as_str())).collect()
}

#[test]
fn every_workspace_file_parses_without_diagnostics() {
    for (path, text) in workspace_sources() {
        let parsed = parse_file(&scan_source(&path, &text, false));
        assert!(
            parsed.errors.is_empty(),
            "{path}: parser lost sync: {:?}",
            parsed.errors
        );
    }
}

#[test]
fn lexer_round_trips_every_workspace_file() {
    for (path, text) in workspace_sources() {
        let toks = lex(&scan_source(&path, &text, false));
        let printed = print_toks(&toks);
        let again = lex(&scan_source(&path, &printed, false));
        assert_eq!(
            stream(&toks),
            stream(&again),
            "{path}: lexer round-trip diverged"
        );
    }
}

/// Vocabulary for token soup: keywords, idents, literals, operators and
/// (frequently unbalanced) delimiters that exercise every lexer arm.
const VOCAB: &[&str] = &[
    "fn", "struct", "impl", "trait", "let", "mut", "pub", "use", "mod", "for", "in", "while",
    "loop", "if", "else", "match", "return", "unsafe", "self", "Self", "x", "ys", "do_it", "Vec",
    "0", "42", "1.5", "0.0f32", "1e-3", "0xff", "\"s\"", "''", "'a", "{", "}", "(", ")", "[", "]",
    "<", ">", ";", ",", ".", "::", "->", "=>", "&", "*", "+", "+=", "==", "!", "#", "|", "..",
    "..=", "=", "||", "move",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn parser_terminates_and_lexer_round_trips_on_token_soup(
        picks in prop::collection::vec(0usize..60, 0..160),
        breaks in prop::collection::vec(0u8..8, 0..160),
    ) {
        prop_assert_eq!(VOCAB.len(), 60, "keep the pick range in sync");
        let mut src = String::new();
        for (i, &p) in picks.iter().enumerate() {
            src.push_str(VOCAB[p]);
            // Sprinkle newlines so multi-line constructs appear.
            if breaks.get(i).copied().unwrap_or(0) == 0 {
                src.push('\n');
            } else {
                src.push(' ');
            }
        }
        // Termination + no panic; diagnostics are fine on soup.
        let parsed = parse_file(&scan_source("soup.rs", &src, false));
        let _ = parsed.fns.len();

        let toks = lex(&scan_source("soup.rs", &src, false));
        let printed = print_toks(&toks);
        let again = lex(&scan_source("soup.rs", &printed, false));
        prop_assert_eq!(stream(&toks), stream(&again), "soup:\n{}", src);
    }
}
