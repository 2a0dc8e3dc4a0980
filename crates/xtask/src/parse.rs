//! A lightweight recursive-descent Rust parser for semantic lint rules.
//!
//! [`crate::scan`] gives the rules comment/string/`cfg(test)`-aware
//! *lines*; this module turns those lines into just enough structure for
//! graph and dataflow analysis: a token stream, the item tree (modules,
//! impls, fns, `use` declarations), and per-function **facts** — calls,
//! method calls, macro invocations, slice indexing, loops and their
//! accumulation patterns. It is deliberately not a full Rust grammar
//! (`syn` would drag a dependency across the shim boundary the lint
//! polices): expression structure beyond the facts is skipped with
//! balanced-delimiter scanning, which is exactly as much as the
//! call-graph rules in [`crate::semantic`] need.
//!
//! Invariants the parser relies on (and the proptest suite pins):
//! the scanner blanked string/char contents and stripped comments, so
//! every delimiter left in `ScannedLine::code` is real code structure.

use crate::scan::ScannedFile;

/// Token classes. Punctuation is kept as text; only the handful of
/// multi-character operators the rules care about are joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (including suffixed forms like `0.0f32`).
    Number,
    /// A (blanked) string literal.
    Str,
    /// A lifetime (`'a`) or blanked char literal.
    Tick,
    /// Operator / delimiter text.
    Punct,
}

/// One lexical token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// Whether the token sits in a `#[cfg(test)]` region / test file.
    pub in_test: bool,
}

/// Multi-character operators joined into single tokens. Order matters:
/// longest first. `<`/`>` are intentionally left single so generic
/// angle tracking stays local.
const JOINED: &[&str] = &[
    "..=", "...", "::", "->", "=>", "..", "+=", "-=", "*=", "/=", "%=", "&&", "||", "==", "!=",
    "<=", ">=",
];

/// Lexes a scanned file into a token stream. The concatenation of the
/// returned tokens' text equals the scanned `code` with whitespace
/// removed — the round-trip property the proptest suite checks.
pub fn lex(file: &ScannedFile) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let n = chars.len();
        let mut k = 0;
        while k < n {
            let c = chars[k];
            if c.is_whitespace() {
                k += 1;
                continue;
            }
            let (kind, text, used) = if c.is_alphabetic() || c == '_' {
                let mut j = k;
                while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                (TokKind::Ident, chars[k..j].iter().collect(), j - k)
            } else if c.is_ascii_digit() {
                // Numbers may embed `.`, type suffixes and exponent signs
                // (`1.5e-3`, `0xff`, `0.0f32`). A trailing `.` belongs to
                // the number only if a digit follows (so `0..n` stays a
                // range).
                let mut j = k;
                while j < n {
                    let d = chars[j];
                    let continues = d.is_alphanumeric()
                        || d == '_'
                        || (d == '.' && j + 1 < n && chars[j + 1].is_ascii_digit())
                        || ((d == '+' || d == '-')
                            && j > k
                            && (chars[j - 1] == 'e' || chars[j - 1] == 'E'));
                    if !continues {
                        break;
                    }
                    j += 1;
                }
                (TokKind::Number, chars[k..j].iter().collect(), j - k)
            } else if c == '"' {
                // Blanked string literal: delimiters survive scanning, so
                // the closing quote is the next `"`.
                let mut j = k + 1;
                while j < n && chars[j] != '"' {
                    j += 1;
                }
                let j = (j + 1).min(n);
                (TokKind::Str, chars[k..j].iter().collect(), j - k)
            } else if c == '\'' {
                // `''` is a blanked char literal; `'ident` a lifetime.
                if k + 1 < n && chars[k + 1] == '\'' {
                    (TokKind::Tick, "''".into(), 2)
                } else {
                    let mut j = k + 1;
                    while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    (TokKind::Tick, chars[k..j].iter().collect(), j - k)
                }
            } else {
                let rest: String = chars[k..n.min(k + 3)].iter().collect();
                match JOINED.iter().find(|op| rest.starts_with(**op)) {
                    Some(op) => (TokKind::Punct, (*op).to_string(), op.len()),
                    None => (TokKind::Punct, c.to_string(), 1),
                }
            };
            toks.push(Tok {
                kind,
                text,
                line: i + 1,
                in_test: line.in_test,
            });
            k += used;
        }
    }
    toks
}

/// A `use` declaration leaf: `alias` names `segments` in this file.
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// The name the import is visible as (last segment, or the `as` name).
    pub alias: String,
    /// Full path segments (`crate`/`self`/`super` unresolved).
    pub segments: Vec<String>,
}

/// One fact extracted from a function body.
#[derive(Debug, Clone, PartialEq)]
pub enum Fact {
    /// A path call `a::b::f(…)`. `path` holds every segment incl. the
    /// callee name.
    Call {
        path: Vec<String>,
        line: usize,
        in_loop: bool,
    },
    /// A method call `recv.name(…)`. `recv` is the trailing identifier
    /// chain of the receiver (`["self", "cache"]` for
    /// `self.cache.len()`), empty when the receiver is a compound
    /// expression. `zero_args` is true for an empty argument list.
    Method {
        name: String,
        recv: Vec<String>,
        zero_args: bool,
        line: usize,
        in_loop: bool,
    },
    /// A macro invocation `name!(…)`.
    Macro {
        name: String,
        line: usize,
        in_loop: bool,
    },
    /// A slice/array index expression `expr[…]`.
    Index { line: usize, in_loop: bool },
    /// A `for`/`while` loop that iterates in non-ascending order
    /// (`.rev()` / `.step_by(…)` in its header) while its body
    /// accumulates with a compound assignment.
    NonAscendingAccum { line: usize },
    /// A closure expression `|args| body` / `move |args| body`. Records
    /// what the body *captures* from the enclosing scope (identifiers
    /// used in the body that are neither closure parameters nor local
    /// bindings of the body), the capture mode, and the innermost call
    /// the closure is an argument of — enough for [`crate::escape`] to
    /// tell thread-local values from shared ones at spawn sites, and
    /// for [`crate::race`] to build a per-closure CFG from the body
    /// tokens ([`crate::cfg`] absorbs closures into single statements).
    Closure {
        line: usize,
        /// Last source line of the closure body.
        end_line: usize,
        in_loop: bool,
        /// True for `move |…|` closures: captures are taken by value.
        /// Non-move closures capture by reference (Rust's per-capture
        /// inference is approximated at closure granularity).
        by_move: bool,
        /// Closure parameter bindings, in declaration order.
        params: Vec<String>,
        /// Captured identifiers, sorted and deduplicated.
        captures: Vec<String>,
        /// Callee name of the innermost call this closure is an
        /// argument of (`spawn` for `scope.spawn(move || …)`), if any.
        enclosing_call: Option<String>,
        /// Receiver chain / path prefix of that call (`scope` for
        /// `scope.spawn`, `thread` for `thread::scope`); empty when
        /// the call is unqualified or there is no enclosing call.
        enclosing_recv: String,
        /// The body token stream, exclusive of the outer braces for
        /// block bodies.
        body: Vec<Tok>,
    },
}

impl Fact {
    /// The source line of the fact.
    pub fn line(&self) -> usize {
        match self {
            Fact::Call { line, .. }
            | Fact::Method { line, .. }
            | Fact::Macro { line, .. }
            | Fact::Index { line, .. }
            | Fact::NonAscendingAccum { line }
            | Fact::Closure { line, .. } => *line,
        }
    }
}

/// A parsed function (free fn, inherent/trait method, or default trait
/// method).
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// The `impl`/`trait` type the fn belongs to, if any.
    pub owner: Option<String>,
    /// Inline `mod` path inside the file (excluding the file module).
    pub modules: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// The raw source line of the signature (for diagnostics/allowlist).
    pub sig: String,
    /// Whether the fn sits in test-only code.
    pub in_test: bool,
    pub facts: Vec<Fact>,
    /// Parameter binding names in declaration order (`self` included;
    /// destructured patterns contribute their leaf bindings).
    pub params: Vec<String>,
    /// The body's token stream, exclusive of the outer braces. Empty for
    /// bodiless trait declarations. [`crate::cfg`] builds CFGs from this.
    pub body: Vec<Tok>,
}

/// A parse diagnostic. The workspace must parse diagnostic-free (pinned
/// by a test); diagnostics on arbitrary input are recoverable — the
/// parser skips ahead instead of aborting.
#[derive(Debug, Clone)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

/// A module-level `static` item: the escape analysis seeds its shared
/// roots from these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticDef {
    pub name: String,
    /// 1-based line of the `static` keyword.
    pub line: usize,
    /// Whitespace-joined type text between `:` and `=`/`;`.
    pub ty: String,
    pub in_test: bool,
}

/// A fully parsed source file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    pub path: String,
    pub uses: Vec<UseDecl>,
    pub fns: Vec<FnDef>,
    /// Module-level `static` items (function-body statics are not
    /// recorded; the workspace keeps those behind `OnceLock`).
    pub statics: Vec<StaticDef>,
    pub errors: Vec<ParseError>,
    /// Raw source lines, for finding snippets.
    pub raw_lines: Vec<String>,
}

impl ParsedFile {
    /// The raw source text of a 1-based line (empty when out of range).
    pub fn raw_line(&self, line: usize) -> String {
        self.raw_lines
            .get(line.saturating_sub(1))
            .cloned()
            .unwrap_or_default()
    }
}

/// Whether `prefix::callee(…)` / `prefix.callee(…)` runs a closure
/// argument once per task: a `spawn`, or a worker-pool region.
fn runs_per_task(callee: &str, prefix: &str) -> bool {
    callee == "spawn" || (prefix == "pool" && matches!(callee, "run" | "run_chunks"))
}

/// Keywords that look like calls when followed by `(` but are not.
fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "in"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "as"
            | "dyn"
            | "impl"
            | "fn"
            | "where"
            | "unsafe"
            | "await"
    )
}

/// Extracts parameter binding names from a parameter-list token slice
/// (including the outer parens). `self` receivers yield `"self"`; a
/// plain binding is an identifier directly followed by `:` at paren
/// depth 1 outside generic angles and preceded (modulo `mut`/`ref`) by
/// `(` or `,`. Destructured patterns are skipped — missing a binding
/// only under-approximates downstream taint, never over-reports.
fn param_names(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut angle = 0usize;
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            "<" => angle += 1,
            ">" => angle = angle.saturating_sub(1),
            _ => {}
        }
        if depth != 1 || angle != 0 || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "self" && out.is_empty() {
            out.push("self".to_string());
            continue;
        }
        let next_is_colon = toks.get(i + 1).is_some_and(|n| n.text == ":");
        if !next_is_colon || is_expr_keyword(&t.text) {
            continue;
        }
        let mut j = i;
        while j > 0 && matches!(toks[j - 1].text.as_str(), "mut" | "ref") {
            j -= 1;
        }
        if j > 0 && matches!(toks[j - 1].text.as_str(), "(" | ",") {
            out.push(t.text.clone());
        }
    }
    out
}

/// Keywords and literal-like identifiers that never name a binding.
fn is_non_binding_ident(s: &str) -> bool {
    is_expr_keyword(s)
        || matches!(
            s,
            "true"
                | "false"
                | "self"
                | "Self"
                | "crate"
                | "super"
                | "const"
                | "static"
                | "pub"
                | "use"
                | "struct"
                | "enum"
                | "trait"
                | "mod"
                | "type"
                | "async"
                | "_"
        )
}

/// Whether a token can end an expression (slice-local mirror of
/// `Parser::tok_ends_expr`, used when scanning closure bodies for
/// nested closure parameters).
fn ends_expr(t: &Tok) -> bool {
    match t.kind {
        TokKind::Ident => !is_expr_keyword(&t.text) && t.text != "as",
        TokKind::Number | TokKind::Str => true,
        TokKind::Tick => false,
        TokKind::Punct => matches!(t.text.as_str(), ")" | "]" | "?"),
    }
}

/// Identifiers a closure body reads from its enclosing scope: used
/// idents minus the closure's own parameters and the bindings the body
/// introduces (`let` patterns, `for` bindings, match-arm patterns,
/// nested-closure parameters). Heuristic mirror of [`crate::cfg`]'s
/// use detection: uppercase idents (types, consts, statics), path
/// segments, callee/macro/field names and struct-literal field labels
/// are excluded. Over-collecting *locals* only under-reports captures,
/// which downstream analyses treat as thread-local — the conservative
/// direction for false-positive avoidance.
fn collect_captures(toks: &[Tok], params: &[String]) -> Vec<String> {
    use std::collections::BTreeSet;
    let mut locals: BTreeSet<String> = params.iter().cloned().collect();

    // Pass 1: bindings introduced inside the body.
    let mut seg_start = 0usize; // start of the current `{`/`,`/`;` segment
    let mut i = 0usize;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "let" => {
                // Pattern idents up to `=`/`;` (type ascriptions masked).
                let mut j = i + 1;
                let mut depth = 0usize;
                let mut in_type = false;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "=" | ";" if depth == 0 => break,
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        ":" => in_type = true,
                        "," => in_type = false,
                        s => {
                            if toks[j].kind == TokKind::Ident
                                && !in_type
                                && !is_non_binding_ident(s)
                                && !s.starts_with(char::is_uppercase)
                            {
                                locals.insert(s.to_string());
                            }
                        }
                    }
                    j += 1;
                }
                i = j;
            }
            "for" => {
                // `for pat in …` binds the pattern leaves.
                let mut j = i + 1;
                while j < toks.len() && toks[j].text != "in" && toks[j].text != "{" {
                    let s = toks[j].text.as_str();
                    if toks[j].kind == TokKind::Ident
                        && !is_non_binding_ident(s)
                        && !s.starts_with(char::is_uppercase)
                    {
                        locals.insert(s.to_string());
                    }
                    j += 1;
                }
                i = j.max(i + 1);
            }
            "|" if i == 0 || !ends_expr(&toks[i - 1]) => {
                // Nested closure: its parameters bind locally.
                let mut j = i + 1;
                let mut depth = 0usize;
                let mut in_type = false;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "|" if depth == 0 => break,
                        "(" | "[" => depth += 1,
                        ")" | "]" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        "{" | "}" | ";" | "=>" => break,
                        ":" if depth == 0 => in_type = true,
                        "," if depth == 0 => in_type = false,
                        s => {
                            if toks[j].kind == TokKind::Ident
                                && !in_type
                                && !is_non_binding_ident(s)
                                && !s.starts_with(char::is_uppercase)
                            {
                                locals.insert(s.to_string());
                            }
                        }
                    }
                    j += 1;
                }
                i = j.max(i + 1);
            }
            "=>" => {
                // Match arm: idents between the segment start and the
                // arrow are pattern bindings (guard uses get swept in —
                // that only under-reports captures).
                for t in &toks[seg_start..i] {
                    let s = t.text.as_str();
                    if t.kind == TokKind::Ident
                        && !is_non_binding_ident(s)
                        && !s.starts_with(char::is_uppercase)
                    {
                        locals.insert(s.to_string());
                    }
                }
                i += 1;
            }
            "{" | "}" | "," | ";" => {
                seg_start = i + 1;
                i += 1;
            }
            _ => i += 1,
        }
    }

    // Pass 2: uses not bound locally are captures.
    let mut caps = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let s = t.text.as_str();
        if is_non_binding_ident(s) || s.starts_with(char::is_uppercase) || s.starts_with('_') {
            continue;
        }
        if locals.contains(s) {
            continue;
        }
        let next = toks.get(i + 1).map_or("", |n| n.text.as_str());
        // Calls, macros, path prefixes, struct-literal field labels and
        // type ascriptions are not value reads of a capture.
        if next == "(" || next == "!" || next == "::" || next == ":" {
            continue;
        }
        let prev = if i == 0 {
            ""
        } else {
            toks[i - 1].text.as_str()
        };
        if prev == "." || prev == "::" || prev == "fn" || prev == "'" || prev == "as" {
            continue;
        }
        caps.insert(s.to_string());
    }
    caps.into_iter().collect()
}

/// Parses a scanned file. Never panics; malformed regions surface as
/// [`ParseError`]s and are skipped.
pub fn parse_file(file: &ScannedFile) -> ParsedFile {
    let toks = lex(file);
    let mut p = Parser {
        toks,
        pos: 0,
        raw_lines: file.lines.iter().map(|l| l.raw.clone()).collect(),
        out: ParsedFile {
            path: file.path.clone(),
            uses: Vec::new(),
            fns: Vec::new(),
            statics: Vec::new(),
            errors: Vec::new(),
            raw_lines: file.lines.iter().map(|l| l.raw.clone()).collect(),
        },
        call_ctx: Vec::new(),
    };
    let mut modules = Vec::new();
    p.items(&mut modules, None, usize::MAX);
    p.out
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    raw_lines: Vec<String>,
    out: ParsedFile,
    /// Stack of `(callee, receiver/path prefix)` for the call argument
    /// groups the cursor is inside — closures read the top entry to
    /// learn which call they are passed to.
    call_ctx: Vec<(String, String)>,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek_text(&self) -> &str {
        self.toks.get(self.pos).map_or("", |t| t.text.as_str())
    }

    fn peek_at(&self, off: usize) -> &str {
        self.toks
            .get(self.pos + off)
            .map_or("", |t| t.text.as_str())
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.peek_text() == text {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn cur_line(&self) -> usize {
        self.peek().map_or(self.raw_lines.len().max(1), |t| t.line)
    }

    fn raw_line(&self, line: usize) -> String {
        self.raw_lines
            .get(line.saturating_sub(1))
            .cloned()
            .unwrap_or_default()
    }

    fn error(&mut self, message: String) {
        let line = self.cur_line();
        self.out.errors.push(ParseError { line, message });
    }

    /// Skips one balanced group. The cursor must sit ON the opener.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        if !self.eat(open) {
            return;
        }
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                Some(t) if t.text == open => depth += 1,
                Some(t) if t.text == close => depth -= 1,
                Some(_) => {}
                None => return,
            }
        }
    }

    /// Skips a generics group `<…>`, tolerating nested angles. The
    /// cursor must sit on `<`.
    fn skip_angles(&mut self) {
        if !self.eat("<") {
            return;
        }
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                Some(t) if t.text == "<" => depth += 1,
                Some(t) if t.text == ">" => depth -= 1,
                // `(`/`[` groups inside generics (fn pointers, arrays).
                Some(t) if t.text == "(" => {
                    self.pos -= 1;
                    self.skip_balanced("(", ")");
                }
                Some(t) if t.text == "[" => {
                    self.pos -= 1;
                    self.skip_balanced("[", "]");
                }
                Some(_) => {}
                None => return,
            }
        }
    }

    /// Skips to the next `;` at top delimiter depth (consuming it), or
    /// stops before an unmatched `}`.
    fn skip_to_semi(&mut self) {
        loop {
            match self.peek_text() {
                "" => return,
                ";" => {
                    self.pos += 1;
                    return;
                }
                "(" => self.skip_balanced("(", ")"),
                "[" => self.skip_balanced("[", "]"),
                "{" => self.skip_balanced("{", "}"),
                "}" => return,
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Parses items until `limit` tokens are consumed or an unmatched
    /// `}` / EOF is hit. `owner` is the enclosing impl/trait type.
    fn items(&mut self, modules: &mut Vec<String>, owner: Option<&str>, limit: usize) {
        let mut consumed = 0usize;
        while consumed < limit {
            let before = self.pos;
            match self.peek_text() {
                "" | "}" => return,
                "#" => {
                    // Attribute (incl. `#![…]`).
                    self.pos += 1;
                    self.eat("!");
                    if self.peek_text() == "[" {
                        self.skip_balanced("[", "]");
                    }
                }
                "pub" => {
                    self.pos += 1;
                    if self.peek_text() == "(" {
                        self.skip_balanced("(", ")");
                    }
                }
                "use" => self.use_decl(),
                "mod" => {
                    self.pos += 1;
                    let name = match self.peek() {
                        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                        _ => {
                            self.error("expected module name after `mod`".into());
                            self.skip_to_semi();
                            continue;
                        }
                    };
                    self.pos += 1;
                    if self.eat("{") {
                        modules.push(name);
                        self.items(modules, None, usize::MAX);
                        modules.pop();
                        if !self.eat("}") {
                            self.error("unclosed module block".into());
                        }
                    } else {
                        self.eat(";");
                    }
                }
                "impl" => self.impl_block(modules),
                "trait" => {
                    self.pos += 1;
                    self.eat("unsafe");
                    let name = self.peek_text().to_string();
                    self.pos += 1;
                    if self.peek_text() == "<" {
                        self.skip_angles();
                    }
                    // Supertraits / where clause up to the body.
                    while !matches!(self.peek_text(), "{" | ";" | "") {
                        if self.peek_text() == "<" {
                            self.skip_angles();
                        } else {
                            self.pos += 1;
                        }
                    }
                    if self.eat("{") {
                        self.items(modules, Some(&name), usize::MAX);
                        if !self.eat("}") {
                            self.error("unclosed trait block".into());
                        }
                    } else {
                        self.eat(";");
                    }
                }
                "fn" => self.fn_item(modules, owner),
                "unsafe" | "const" | "async" | "extern" | "default" => {
                    // Qualifiers before `fn` (or `extern` string ABI, or a
                    // `const NAME: …` item — disambiguated below).
                    if self.peek_text() == "const" && self.peek_at(1) != "fn" {
                        self.skip_to_semi(); // const item
                    } else if self.peek_text() == "extern" && self.peek_at(1) != "fn" {
                        self.pos += 1; // `extern crate x;` or ABI string
                        if self.peek().is_some_and(|t| t.kind == TokKind::Str) {
                            self.pos += 1;
                        } else {
                            self.skip_to_semi();
                        }
                    } else {
                        self.pos += 1;
                    }
                }
                "static" => self.static_item(),
                "type" => self.skip_to_semi(),
                "struct" | "enum" | "union" => {
                    self.pos += 1;
                    self.pos += 1; // name
                    if self.peek_text() == "<" {
                        self.skip_angles();
                    }
                    // Tuple struct `(…);`, unit `;`, or braced body.
                    loop {
                        match self.peek_text() {
                            "(" => self.skip_balanced("(", ")"),
                            "{" => {
                                self.skip_balanced("{", "}");
                                break;
                            }
                            ";" => {
                                self.pos += 1;
                                break;
                            }
                            "<" => self.skip_angles(),
                            "" | "}" => break,
                            _ => {
                                self.pos += 1;
                            }
                        }
                    }
                }
                "macro_rules" => {
                    self.pos += 1;
                    self.eat("!");
                    self.pos += 1; // name
                    if self.peek_text() == "{" {
                        self.skip_balanced("{", "}");
                    } else {
                        self.skip_to_semi();
                    }
                }
                other => {
                    // A macro invocation at item level (`thread_local! { … }`,
                    // `proptest::proptest! { … }`): skip the (possibly
                    // path-qualified) macro name, then the delimited body.
                    let mut look = 0usize;
                    while self.peek().is_some()
                        && self
                            .toks
                            .get(self.pos + look)
                            .is_some_and(|t| t.kind == TokKind::Ident)
                        && self.peek_at(look + 1) == "::"
                    {
                        look += 2;
                    }
                    let is_macro = self
                        .toks
                        .get(self.pos + look)
                        .is_some_and(|t| t.kind == TokKind::Ident)
                        && self.peek_at(look + 1) == "!";
                    if is_macro {
                        self.pos += look + 2;
                        match self.peek_text() {
                            "{" | "(" | "[" => {
                                let (open, close) = match self.peek_text() {
                                    "{" => ("{", "}"),
                                    "(" => ("(", ")"),
                                    _ => ("[", "]"),
                                };
                                self.skip_balanced(open, close);
                                self.eat(";");
                            }
                            _ => self.skip_to_semi(),
                        }
                    } else {
                        self.error(format!("unexpected item token `{other}`"));
                        self.pos += 1;
                    }
                }
            }
            consumed += self.pos.saturating_sub(before).max(1);
            if self.pos == before {
                self.pos += 1; // guarantee progress
            }
        }
    }

    /// Records a module-level `static NAME: Type = …;` item. The type
    /// text lets the escape analysis exempt synchronized wrappers
    /// (`Atomic*`, `OnceLock`, `Mutex`, …) from raw-access pairing.
    fn static_item(&mut self) {
        let line = self.cur_line();
        let in_test = self.peek().is_some_and(|t| t.in_test);
        self.pos += 1; // `static`
        self.eat("mut");
        let name = match self.peek() {
            Some(t) if t.kind == TokKind::Ident => t.text.clone(),
            _ => {
                self.skip_to_semi();
                return;
            }
        };
        self.pos += 1;
        let mut ty = Vec::new();
        if self.eat(":") {
            loop {
                match self.peek_text() {
                    "=" | ";" | "" | "}" => break,
                    s => {
                        ty.push(s.to_string());
                        self.pos += 1;
                    }
                }
            }
        }
        self.out.statics.push(StaticDef {
            name,
            line,
            ty: ty.join(" "),
            in_test,
        });
        self.skip_to_semi();
    }

    /// Parses a `use` declaration into leaf aliases.
    fn use_decl(&mut self) {
        self.pos += 1; // `use`
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(&mut prefix);
        self.eat(";");
    }

    fn use_tree(&mut self, prefix: &mut Vec<String>) {
        let depth_at_entry = prefix.len();
        loop {
            match self.peek_text() {
                "{" => {
                    self.pos += 1;
                    loop {
                        self.use_tree(prefix);
                        if !self.eat(",") {
                            break;
                        }
                    }
                    self.eat("}");
                    prefix.truncate(depth_at_entry);
                    return;
                }
                "*" => {
                    self.pos += 1;
                    self.out.uses.push(UseDecl {
                        alias: "*".into(),
                        segments: prefix.clone(),
                    });
                    prefix.truncate(depth_at_entry);
                    return;
                }
                "" | ";" | "," | "}" => {
                    // Path ended: the last segment is the alias.
                    if prefix.len() > depth_at_entry || !prefix.is_empty() {
                        let alias = if self.eat("as") {
                            let a = self.peek_text().to_string();
                            self.pos += 1;
                            a
                        } else {
                            prefix.last().cloned().unwrap_or_default()
                        };
                        if !alias.is_empty() {
                            self.out.uses.push(UseDecl {
                                alias,
                                segments: prefix.clone(),
                            });
                        }
                    }
                    prefix.truncate(depth_at_entry);
                    return;
                }
                "as" => {
                    self.pos += 1;
                    let a = self.peek_text().to_string();
                    self.pos += 1;
                    self.out.uses.push(UseDecl {
                        alias: a,
                        segments: prefix.clone(),
                    });
                    prefix.truncate(depth_at_entry);
                    return;
                }
                "::" => {
                    self.pos += 1;
                }
                _ => {
                    let t = self.peek_text().to_string();
                    prefix.push(t);
                    self.pos += 1;
                }
            }
        }
    }

    /// Parses `impl [Trait for] Type { items }`.
    fn impl_block(&mut self, modules: &mut Vec<String>) {
        self.pos += 1; // `impl`
        if self.peek_text() == "<" {
            self.skip_angles();
        }
        // Collect the head up to `{`, remembering the last type name seen
        // after a `for` (trait impls) or overall (inherent impls).
        let mut owner = String::new();
        let mut after_for = false;
        let mut owner_from_for = String::new();
        loop {
            match self.peek_text() {
                "{" | "" | ";" => break,
                "for" => {
                    after_for = true;
                    self.pos += 1;
                }
                "<" => self.skip_angles(),
                "(" => self.skip_balanced("(", ")"),
                "[" => self.skip_balanced("[", "]"),
                "::" | "&" | "'" | "dyn" | "mut" => {
                    self.pos += 1;
                }
                "where" => {
                    // Where clause: skip to the body.
                    while !matches!(self.peek_text(), "{" | "") {
                        if self.peek_text() == "<" {
                            self.skip_angles();
                        } else {
                            self.pos += 1;
                        }
                    }
                }
                _ => {
                    if let Some(t) = self.peek() {
                        if t.kind == TokKind::Ident {
                            if after_for {
                                owner_from_for = t.text.clone();
                            } else {
                                owner = t.text.clone();
                            }
                        }
                    }
                    self.pos += 1;
                }
            }
        }
        let owner = if after_for { owner_from_for } else { owner };
        if self.eat("{") {
            let o = if owner.is_empty() {
                None
            } else {
                Some(owner.as_str())
            };
            self.items(modules, o, usize::MAX);
            if !self.eat("}") {
                self.error("unclosed impl block".into());
            }
        } else {
            self.eat(";");
        }
    }

    /// Parses `fn name …` at item level: signature, then the body facts.
    fn fn_item(&mut self, modules: &[String], owner: Option<&str>) {
        let fn_tok_line = self.cur_line();
        let in_test = self.peek().is_some_and(|t| t.in_test);
        self.pos += 1; // `fn`
        let name = match self.peek() {
            Some(t) if t.kind == TokKind::Ident => t.text.clone(),
            _ => {
                self.error("expected function name after `fn`".into());
                return;
            }
        };
        self.pos += 1;
        if self.peek_text() == "<" {
            self.skip_angles();
        }
        let mut params = Vec::new();
        if self.peek_text() == "(" {
            let param_start = self.pos;
            self.skip_balanced("(", ")");
            params = param_names(&self.toks[param_start..self.pos]);
        } else {
            self.error(format!("fn `{name}`: expected parameter list"));
        }
        // Return type / where clause, up to body or `;` (trait decl).
        loop {
            match self.peek_text() {
                "{" | ";" | "" | "}" => break,
                "<" => self.skip_angles(),
                "(" => self.skip_balanced("(", ")"),
                "[" => self.skip_balanced("[", "]"),
                _ => {
                    self.pos += 1;
                }
            }
        }
        let mut def = FnDef {
            name,
            owner: owner.map(str::to_string),
            modules: modules.to_vec(),
            line: fn_tok_line,
            sig: self.raw_line(fn_tok_line),
            in_test,
            facts: Vec::new(),
            params,
            body: Vec::new(),
        };
        if self.eat("{") {
            let body_start = self.pos;
            let mut facts = Vec::new();
            self.body(&mut facts, 0);
            def.body = self.toks[body_start..self.pos].to_vec();
            if !self.eat("}") {
                self.error(format!("fn `{}`: unclosed body", def.name));
            }
            def.facts = facts;
        } else {
            self.eat(";"); // trait method declaration without body
        }
        self.out.fns.push(def);
    }

    /// Whether token `i` can end an indexable expression (so a following
    /// `[` is an index, not an array literal/type or attribute).
    fn tok_ends_expr(&self, i: usize) -> bool {
        match self.toks.get(i) {
            Some(t) => match t.kind {
                TokKind::Ident => !is_expr_keyword(&t.text) && t.text != "as",
                TokKind::Number | TokKind::Str => true,
                TokKind::Tick => false,
                TokKind::Punct => matches!(t.text.as_str(), ")" | "]" | "?"),
            },
            None => false,
        }
    }

    /// Scans one `{ … }` body (cursor past the opening brace), emitting
    /// facts. `loop_depth` counts enclosing `for`/`while`/`loop` bodies.
    fn body(&mut self, facts: &mut Vec<Fact>, loop_depth: usize) {
        while let Some(t) = self.peek().cloned() {
            match t.text.as_str() {
                "}" => return,
                "{" => {
                    self.pos += 1;
                    self.body(facts, loop_depth);
                    self.eat("}");
                }
                "for" | "while" | "loop" => {
                    self.loop_expr(facts, loop_depth, &t.text);
                }
                "[" => {
                    // Array literal or index: decided by the PREVIOUS
                    // token (callers handle index detection before
                    // descending; reaching `[` here means literal/type).
                    let is_index = self.pos > 0 && self.tok_ends_expr(self.pos - 1);
                    if is_index && !t.in_test {
                        facts.push(Fact::Index {
                            line: t.line,
                            in_loop: loop_depth > 0,
                        });
                    }
                    self.pos += 1;
                    self.body_in_group(facts, loop_depth, "]");
                    self.eat("]");
                }
                "(" => {
                    self.pos += 1;
                    self.body_in_group(facts, loop_depth, ")");
                    self.eat(")");
                }
                "." => {
                    self.method_or_field(facts, loop_depth);
                }
                "#" => {
                    // Statement attribute.
                    self.pos += 1;
                    self.eat("!");
                    if self.peek_text() == "[" {
                        self.skip_balanced("[", "]");
                    }
                }
                "|" | "||" => {
                    if !self.closure_expr(facts, loop_depth) {
                        self.pos += 1;
                    }
                }
                _ if t.kind == TokKind::Ident => {
                    self.ident_in_body(facts, loop_depth, &t);
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Scans tokens inside `(…)` / `[…]` groups in a body — same fact
    /// extraction, stopping before the given closer.
    fn body_in_group(&mut self, facts: &mut Vec<Fact>, loop_depth: usize, close: &str) {
        while let Some(t) = self.peek().cloned() {
            if t.text == close {
                return;
            }
            match t.text.as_str() {
                "}" => return, // tolerate imbalance: recover upward
                "{" => {
                    self.pos += 1;
                    self.body(facts, loop_depth);
                    self.eat("}");
                }
                "for" | "while" | "loop" => self.loop_expr(facts, loop_depth, &t.text),
                "[" => {
                    let is_index = self.pos > 0 && self.tok_ends_expr(self.pos - 1);
                    if is_index && !t.in_test {
                        facts.push(Fact::Index {
                            line: t.line,
                            in_loop: loop_depth > 0,
                        });
                    }
                    self.pos += 1;
                    self.body_in_group(facts, loop_depth, "]");
                    self.eat("]");
                }
                "(" => {
                    self.pos += 1;
                    self.body_in_group(facts, loop_depth, ")");
                    self.eat(")");
                }
                "." => self.method_or_field(facts, loop_depth),
                "|" | "||" => {
                    if !self.closure_expr(facts, loop_depth) {
                        self.pos += 1;
                    }
                }
                _ if t.kind == TokKind::Ident => self.ident_in_body(facts, loop_depth, &t),
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Parses a closure at the cursor (`|` or `||`). Returns `false`
    /// when the token is a binary/pattern `|` (the previous token ends
    /// an expression and no `move` precedes) or the parameter list
    /// never closes — the caller then treats the token as plain
    /// punctuation, matching the pre-closure-aware behaviour.
    fn closure_expr(&mut self, facts: &mut Vec<Fact>, loop_depth: usize) -> bool {
        let open = match self.peek() {
            Some(t) if t.text == "|" || t.text == "||" => t.clone(),
            _ => return false,
        };
        let by_move = self.pos > 0 && self.toks[self.pos - 1].text == "move";
        if !by_move && self.pos > 0 && self.tok_ends_expr(self.pos - 1) {
            return false; // binary `|`/`||` between expressions
        }
        let save = self.pos;
        let mut params = Vec::new();
        self.pos += 1; // opening `|` (or the whole `||`)
        if open.text == "|" {
            // Parameter list up to the closing `|`. `in_type` masks the
            // idents of a `pat: Type` annotation; destructured patterns
            // contribute every lowercase leaf.
            let mut depth = 0usize;
            let mut in_type = false;
            loop {
                let Some(t) = self.peek().cloned() else {
                    self.pos = save;
                    return false;
                };
                match t.text.as_str() {
                    "|" if depth == 0 => {
                        self.pos += 1;
                        break;
                    }
                    "(" | "[" => depth += 1,
                    ")" | "]" if depth > 0 => depth -= 1,
                    // Terminators a parameter list cannot contain: this
                    // was a pattern `|` after all — rewind.
                    ")" | "]" | "}" | "{" | ";" | "=>" | "||" | "=" => {
                        self.pos = save;
                        return false;
                    }
                    ":" if depth == 0 => in_type = true,
                    "," if depth == 0 => in_type = false,
                    _ => {
                        if t.kind == TokKind::Ident
                            && !in_type
                            && !is_expr_keyword(&t.text)
                            && !t.text.starts_with(char::is_uppercase)
                            && t.text != "_"
                        {
                            params.push(t.text.clone());
                        }
                    }
                }
                self.pos += 1;
            }
        }
        // Optional return type: `|x| -> T { … }` requires a block body.
        if self.peek_text() == "->" {
            self.pos += 1;
            loop {
                match self.peek_text() {
                    "{" | "" | "}" | ";" | "," => break,
                    "<" => self.skip_angles(),
                    "(" => self.skip_balanced("(", ")"),
                    "[" => self.skip_balanced("[", "]"),
                    _ => self.pos += 1,
                }
            }
        }
        // A closure handed to a task runner executes once per task: to
        // every in-loop rule its *body* is a loop body, whether or not
        // the call sits in a lexical loop. (The closure itself is
        // created where it is written: its own `in_loop` stays lexical.)
        let per_task = self
            .call_ctx
            .last()
            .is_some_and(|(callee, prefix)| runs_per_task(callee, prefix));
        let body_depth = loop_depth + usize::from(per_task);
        let body_start;
        let body_end;
        if self.peek_text() == "{" {
            self.pos += 1;
            body_start = self.pos;
            self.body(facts, body_depth);
            body_end = self.pos;
            self.eat("}");
        } else {
            body_start = self.pos;
            self.closure_body_expr(facts, body_depth);
            body_end = self.pos;
        }
        let body: Vec<Tok> = self.toks[body_start..body_end].to_vec();
        let end_line = body.last().map_or(open.line, |t| t.line);
        if !open.in_test {
            let captures = collect_captures(&body, &params);
            let (enclosing_call, enclosing_recv) = match self.call_ctx.last() {
                Some((callee, recv)) => (Some(callee.clone()), recv.clone()),
                None => (None, String::new()),
            };
            facts.push(Fact::Closure {
                line: open.line,
                end_line,
                in_loop: loop_depth > 0,
                by_move,
                params,
                captures,
                enclosing_call,
                enclosing_recv,
                body,
            });
        }
        true
    }

    /// Scans a brace-less closure body: like [`Self::body_in_group`]
    /// but additionally stopping before any token that can end an
    /// expression-form closure (`,`, `;`, a closer, or a match arm's
    /// `=>`).
    fn closure_body_expr(&mut self, facts: &mut Vec<Fact>, loop_depth: usize) {
        while let Some(t) = self.peek().cloned() {
            match t.text.as_str() {
                "," | ";" | ")" | "]" | "}" | "=>" => return,
                "{" => {
                    self.pos += 1;
                    self.body(facts, loop_depth);
                    self.eat("}");
                }
                "for" | "while" | "loop" => self.loop_expr(facts, loop_depth, &t.text),
                "[" => {
                    let is_index = self.pos > 0 && self.tok_ends_expr(self.pos - 1);
                    if is_index && !t.in_test {
                        facts.push(Fact::Index {
                            line: t.line,
                            in_loop: loop_depth > 0,
                        });
                    }
                    self.pos += 1;
                    self.body_in_group(facts, loop_depth, "]");
                    self.eat("]");
                }
                "(" => {
                    self.pos += 1;
                    self.body_in_group(facts, loop_depth, ")");
                    self.eat(")");
                }
                "." => self.method_or_field(facts, loop_depth),
                "|" | "||" => {
                    if !self.closure_expr(facts, loop_depth) {
                        self.pos += 1;
                    }
                }
                _ if t.kind == TokKind::Ident => self.ident_in_body(facts, loop_depth, &t),
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Handles an identifier inside a body: path call, macro, or plain
    /// name. Other idents fall through.
    fn ident_in_body(&mut self, facts: &mut Vec<Fact>, loop_depth: usize, t: &Tok) {
        if is_expr_keyword(&t.text) && !matches!(t.text.as_str(), "for" | "while" | "loop") {
            self.pos += 1;
            return;
        }
        // Collect the full `a::b::c` path (turbofish generics skipped).
        let start_line = t.line;
        let in_test = t.in_test;
        let mut path = vec![t.text.clone()];
        self.pos += 1;
        loop {
            if self.peek_text() == "::" {
                if self.peek_at(1) == "<" {
                    self.pos += 1;
                    self.skip_angles();
                    continue;
                }
                match self.toks.get(self.pos + 1) {
                    Some(n) if n.kind == TokKind::Ident => {
                        path.push(n.text.clone());
                        self.pos += 2;
                    }
                    _ => {
                        self.pos += 1;
                        break;
                    }
                }
            } else {
                break;
            }
        }
        match self.peek_text() {
            "!" => {
                // Macro invocation. Its arguments are real code (they
                // execute), so keep scanning inside the delimiters.
                self.pos += 1;
                if !in_test {
                    facts.push(Fact::Macro {
                        name: path.last().cloned().unwrap_or_default(),
                        line: start_line,
                        in_loop: loop_depth > 0,
                    });
                }
                match self.peek_text() {
                    "(" => {
                        self.pos += 1;
                        self.body_in_group(facts, loop_depth, ")");
                        self.eat(")");
                    }
                    "[" => {
                        self.pos += 1;
                        self.body_in_group(facts, loop_depth, "]");
                        self.eat("]");
                    }
                    "{" => {
                        self.pos += 1;
                        self.body(facts, loop_depth);
                        self.eat("}");
                    }
                    _ => {}
                }
            }
            "(" => {
                let callee = path.last().cloned().unwrap_or_default();
                let prefix = path[..path.len().saturating_sub(1)].join("::");
                if !in_test {
                    facts.push(Fact::Call {
                        path,
                        line: start_line,
                        in_loop: loop_depth > 0,
                    });
                }
                self.call_ctx.push((callee, prefix));
                self.pos += 1;
                self.body_in_group(facts, loop_depth, ")");
                self.eat(")");
                self.call_ctx.pop();
            }
            _ => {}
        }
    }

    /// Handles `.name(…)` / `.name::<T>(…)` / `.await` / field access /
    /// tuple index. The cursor sits on `.`.
    fn method_or_field(&mut self, facts: &mut Vec<Fact>, loop_depth: usize) {
        // Receiver: the trailing `ident(.ident)*` chain before the dot.
        let mut recv = Vec::new();
        let mut i = self.pos;
        while i >= 2 {
            let prev = &self.toks[i - 1];
            if prev.kind == TokKind::Ident && !is_expr_keyword(&prev.text) {
                recv.push(prev.text.clone());
                if self.toks[i - 2].text == "." {
                    i -= 2;
                    continue;
                }
            }
            break;
        }
        if recv.is_empty() && self.pos >= 1 {
            let prev = &self.toks[self.pos - 1];
            if prev.kind == TokKind::Ident && !is_expr_keyword(&prev.text) {
                recv.push(prev.text.clone());
            }
        }
        recv.reverse();

        let dot = self.bump(); // `.`
        let (name, line, in_test) = match self.peek() {
            Some(n) if n.kind == TokKind::Ident => (n.text.clone(), n.line, n.in_test),
            _ => return, // tuple index `.0`, `.await` handled as idents? numbers fall here
        };
        let _ = dot;
        self.pos += 1;
        if self.peek_text() == "::" && self.peek_at(1) == "<" {
            self.pos += 1;
            self.skip_angles();
        }
        if self.peek_text() == "(" {
            let zero_args = self.peek_at(1) == ")";
            self.call_ctx.push((name.clone(), recv.join(".")));
            if !in_test {
                facts.push(Fact::Method {
                    name,
                    recv,
                    zero_args,
                    line,
                    in_loop: loop_depth > 0,
                });
            }
            self.pos += 1;
            self.body_in_group(facts, loop_depth, ")");
            self.eat(")");
            self.call_ctx.pop();
        }
    }

    /// Parses a loop: header (for `for`/`while`), then the body one loop
    /// level deeper. Emits [`Fact::NonAscendingAccum`] when a
    /// non-ascending header feeds a compound-assignment body.
    fn loop_expr(&mut self, facts: &mut Vec<Fact>, loop_depth: usize, kw: &str) {
        let loop_line = self.cur_line();
        let in_test = self.peek().is_some_and(|t| t.in_test);
        self.pos += 1; // keyword
        let mut non_ascending = false;
        if kw != "loop" {
            // Header: scan to the body `{` at depth 0; facts inside the
            // header belong to the ENCLOSING loop level (a `for` header
            // runs once).
            loop {
                match self.peek_text() {
                    "{" | "" | "}" => break,
                    "(" => {
                        // Look for `.rev()` / `.step_by(` before descending.
                        self.pos += 1;
                        self.body_in_group(facts, loop_depth, ")");
                        self.eat(")");
                    }
                    "[" => {
                        let is_index = self.pos > 0 && self.tok_ends_expr(self.pos - 1);
                        if is_index && !self.peek().is_some_and(|t| t.in_test) {
                            facts.push(Fact::Index {
                                line: self.cur_line(),
                                in_loop: loop_depth > 0,
                            });
                        }
                        self.pos += 1;
                        self.body_in_group(facts, loop_depth, "]");
                        self.eat("]");
                    }
                    "." => {
                        let before = facts.len();
                        self.method_or_field(facts, loop_depth);
                        if facts[before..].iter().any(|f| {
                            matches!(f, Fact::Method { name, .. }
                                     if name == "rev" || name == "step_by")
                        }) {
                            non_ascending = true;
                        }
                    }
                    _ => match self.peek().cloned() {
                        Some(t) if t.kind == TokKind::Ident => {
                            self.ident_in_body(facts, loop_depth, &t)
                        }
                        Some(_) => self.pos += 1,
                        None => break,
                    },
                }
            }
        }
        if !self.eat("{") {
            return;
        }
        let body_start = facts.len();
        let compound_before = self.count_compound_assign_ahead();
        self.body(facts, loop_depth + 1);
        self.eat("}");
        let _ = body_start;
        if non_ascending && compound_before && !in_test {
            facts.push(Fact::NonAscendingAccum { line: loop_line });
        }
    }

    /// Whether a compound assignment (`+=` etc.) occurs in the balanced
    /// region starting at the cursor (the just-opened loop body).
    fn count_compound_assign_ahead(&self) -> bool {
        let mut depth = 1usize;
        let mut i = self.pos;
        while let Some(t) = self.toks.get(i) {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                }
                "+=" | "-=" | "*=" | "/=" => return true,
                _ => {}
            }
            i += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&scan_source("crates/x/src/a.rs", src, true))
    }

    #[test]
    fn lexer_round_trips_whitespace_stripped_code() {
        let src = "fn f<'a>(x: &'a [f32]) -> f32 { x[0] + 1.0e-3 } // c\n";
        let scanned = scan_source("crates/x/src/a.rs", src, true);
        let toks = lex(&scanned);
        let joined: String = toks.iter().map(|t| t.text.as_str()).collect();
        let stripped: String = scanned
            .lines
            .iter()
            .flat_map(|l| l.code.chars())
            .filter(|c| !c.is_whitespace())
            .collect();
        assert_eq!(joined, stripped);
    }

    fn closures(p: &ParsedFile) -> Vec<&Fact> {
        p.fns
            .iter()
            .flat_map(|f| &f.facts)
            .filter(|f| matches!(f, Fact::Closure { .. }))
            .collect()
    }

    #[test]
    fn move_closure_in_spawn_records_captures_and_mode() {
        let p = parse(
            "fn run(scope: &S, shared: &Stats) {\n    let local = 1;\n    scope.spawn(move || { shared.hits += local; });\n}\n",
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let cl = closures(&p);
        assert_eq!(cl.len(), 1, "{cl:?}");
        let Fact::Closure {
            by_move,
            captures,
            enclosing_call,
            enclosing_recv,
            params,
            ..
        } = cl[0]
        else {
            unreachable!()
        };
        assert!(*by_move);
        assert!(params.is_empty());
        assert_eq!(captures, &["local".to_string(), "shared".to_string()]);
        assert_eq!(enclosing_call.as_deref(), Some("spawn"));
        assert_eq!(enclosing_recv, "scope");
    }

    #[test]
    fn by_ref_closure_and_local_bindings_are_separated() {
        let p =
            parse("fn f(v: &[u32], off: u32) -> u32 {\n    v.iter().map(|x| x + off).sum()\n}\n");
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let cl = closures(&p);
        assert_eq!(cl.len(), 1, "{cl:?}");
        let Fact::Closure {
            by_move,
            params,
            captures,
            enclosing_call,
            ..
        } = cl[0]
        else {
            unreachable!()
        };
        assert!(!*by_move, "no `move` keyword: by-ref capture mode");
        assert_eq!(params, &["x".to_string()]);
        assert_eq!(captures, &["off".to_string()]);
        assert_eq!(enclosing_call.as_deref(), Some("map"));
    }

    #[test]
    fn nested_closures_bind_their_own_params() {
        let p = parse(
            "fn f(rows: Vec<Vec<u32>>, k: u32) -> u32 {\n    rows.iter().map(|r| r.iter().filter(|c| **c > k).count() as u32).sum()\n}\n",
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let cl = closures(&p);
        assert_eq!(cl.len(), 2, "{cl:?}");
        let outer = cl
            .iter()
            .find_map(|f| match f {
                Fact::Closure {
                    params, captures, ..
                } if params == &["r".to_string()] => Some(captures),
                _ => None,
            })
            .expect("outer closure");
        // `c` is the nested closure's param, not an outer capture.
        assert_eq!(outer, &["k".to_string()]);
    }

    #[test]
    fn thread_spawn_path_call_sets_enclosing_context() {
        let p = parse(
            "fn go(rx: Receiver<u32>) {\n    let h = thread::spawn(move || loop { let m = rx.recv(); use_it(m); });\n    h.join();\n}\n",
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let cl = closures(&p);
        assert_eq!(cl.len(), 1, "{cl:?}");
        let Fact::Closure {
            by_move,
            captures,
            enclosing_call,
            enclosing_recv,
            body,
            ..
        } = cl[0]
        else {
            unreachable!()
        };
        assert!(*by_move);
        assert_eq!(captures, &["rx".to_string()]);
        assert_eq!(enclosing_call.as_deref(), Some("spawn"));
        assert_eq!(enclosing_recv, "thread");
        assert!(body.iter().any(|t| t.text == "recv"));
    }

    #[test]
    fn pattern_and_binary_pipes_are_not_closures() {
        let p = parse(
            "fn f(x: u32, mask: u32) -> u32 {\n    match x { 0 | 1 => x | mask, Some(a) | None => 0, _ => x }\n}\n",
        );
        // No closure facts: every `|` is a pattern or binary operator.
        assert!(closures(&p).is_empty(), "{:?}", closures(&p));
    }

    #[test]
    fn match_arm_bindings_are_not_captures() {
        let p = parse(
            "fn f(r: Result<u32, E>, base: u32) -> u32 {\n    take(|| match r { Ok(v) => v + base, Err(e) => drop_it(e) })\n}\n",
        );
        let cl = closures(&p);
        assert_eq!(cl.len(), 1, "{cl:?}");
        let Fact::Closure { captures, .. } = cl[0] else {
            unreachable!()
        };
        // `v`/`e` bind in arm patterns; `r` and `base` come from outside.
        assert_eq!(captures, &["base".to_string(), "r".to_string()]);
    }

    #[test]
    fn static_items_record_name_and_type() {
        let p = parse(
            "static MAX: AtomicUsize = AtomicUsize::new(0);\nstatic mut RAW: u64 = 0;\nstatic TABLE: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());\n",
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let names: Vec<(&str, &str)> = p
            .statics
            .iter()
            .map(|s| (s.name.as_str(), s.ty.as_str()))
            .collect();
        assert_eq!(
            names,
            [
                ("MAX", "AtomicUsize"),
                ("RAW", "u64"),
                ("TABLE", "Mutex < Vec < ( usize , usize ) > >"),
            ]
        );
    }

    #[test]
    fn fn_items_and_owners_are_found() {
        let p = parse(
            "fn free() {}\nimpl Foo { fn method(&self) {} }\nimpl fmt::Display for Bar { fn fmt(&self) {} }\ntrait T { fn def(&self) { helper(); } fn decl(&self); }\nmod inner { fn nested() {} }\n",
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let names: Vec<(String, Option<String>)> = p
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert!(names.contains(&("free".into(), None)));
        assert!(names.contains(&("method".into(), Some("Foo".into()))));
        assert!(names.contains(&("fmt".into(), Some("Bar".into()))));
        assert!(names.contains(&("def".into(), Some("T".into()))));
        assert!(names.contains(&("decl".into(), Some("T".into()))));
        let nested = p.fns.iter().find(|f| f.name == "nested").expect("nested");
        assert_eq!(nested.modules, vec!["inner".to_string()]);
    }

    #[test]
    fn use_decls_resolve_aliases_and_groups() {
        let p = parse("use a::b::c;\nuse x::{y, z as w};\nuse q::*;\n");
        let aliases: Vec<&str> = p.uses.iter().map(|u| u.alias.as_str()).collect();
        assert_eq!(aliases, vec!["c", "y", "w", "*"]);
        assert_eq!(p.uses[0].segments, vec!["a", "b", "c"]);
        assert_eq!(p.uses[2].segments, vec!["x", "z"]);
        assert_eq!(p.uses[3].segments, vec!["q"]);
    }

    #[test]
    fn calls_methods_macros_and_indexing_are_facts() {
        let p = parse(
            "fn f(v: &[u32]) {\n    helper(v);\n    a::b::g();\n    v.iter().count();\n    let x = v[0];\n    panic!(\"no\");\n    let arr = [1, 2];\n}\n",
        );
        let f = &p.fns[0];
        assert!(f
            .facts
            .iter()
            .any(|x| matches!(x, Fact::Call { path, .. } if path == &vec!["helper".to_string()])));
        assert!(f.facts.iter().any(|x| matches!(
            x,
            Fact::Call { path, .. } if path.join("::") == "a::b::g"
        )));
        assert!(f
            .facts
            .iter()
            .any(|x| matches!(x, Fact::Method { name, .. } if name == "iter")));
        assert!(f
            .facts
            .iter()
            .any(|x| matches!(x, Fact::Macro { name, .. } if name == "panic")));
        let idx: Vec<_> = f
            .facts
            .iter()
            .filter(|x| matches!(x, Fact::Index { .. }))
            .collect();
        assert_eq!(idx.len(), 1, "array literal must not count: {:?}", f.facts);
    }

    #[test]
    fn loops_mark_in_loop_facts_and_rev_accumulation() {
        let p = parse(
            "fn f(v: &[f32]) -> f32 {\n    let before = alloc();\n    let mut s = 0.0;\n    for i in (0..v.len()).rev() {\n        s += v[i];\n    }\n    while s > 1.0 { shrink(&mut s); }\n    s\n}\n",
        );
        let f = &p.fns[0];
        assert!(f.facts.iter().any(|x| matches!(
            x,
            Fact::Call { path, in_loop: false, .. } if path[0] == "alloc"
        )));
        assert!(f.facts.iter().any(|x| matches!(
            x,
            Fact::Call { path, in_loop: true, .. } if path[0] == "shrink"
        )));
        assert!(f
            .facts
            .iter()
            .any(|x| matches!(x, Fact::Index { in_loop: true, .. })));
        assert!(
            f.facts
                .iter()
                .any(|x| matches!(x, Fact::NonAscendingAccum { line: 4 })),
            "{:?}",
            f.facts
        );
    }

    #[test]
    fn ascending_loops_are_not_flagged() {
        let p = parse("fn f(v: &[f32]) -> f32 {\n    let mut s = 0.0;\n    for i in 0..v.len() {\n        s += v[i];\n    }\n    s\n}\n");
        assert!(!p.fns[0]
            .facts
            .iter()
            .any(|x| matches!(x, Fact::NonAscendingAccum { .. })));
    }

    #[test]
    fn method_receivers_and_zero_args_are_recorded() {
        let p = parse(
            "fn f(&self) {\n    self.state.lock();\n    self.io.read(&mut buf);\n    guard.write();\n}\n",
        );
        let f = &p.fns[0];
        let locks: Vec<(String, Vec<String>, bool)> = f
            .facts
            .iter()
            .filter_map(|x| match x {
                Fact::Method {
                    name,
                    recv,
                    zero_args,
                    ..
                } => Some((name.clone(), recv.clone(), *zero_args)),
                _ => None,
            })
            .collect();
        assert!(locks.contains(&(
            "lock".into(),
            vec!["self".to_string(), "state".to_string()],
            true
        )));
        assert!(locks.contains(&(
            "read".into(),
            vec!["self".to_string(), "io".to_string()],
            false
        )));
        assert!(locks.contains(&("write".into(), vec!["guard".to_string()], true)));
    }

    #[test]
    fn cfg_test_functions_are_marked_and_fact_free() {
        let p = parse_file(&scan_source(
            "crates/x/src/a.rs",
            "fn prod() { go(); }\n#[cfg(test)]\nmod tests {\n    fn t() { boom(); }\n}\n",
            false,
        ));
        let prod = p.fns.iter().find(|f| f.name == "prod").expect("prod");
        assert!(!prod.in_test);
        let t = p.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(t.in_test);
        assert!(t.facts.is_empty(), "test facts are skipped: {:?}", t.facts);
    }

    #[test]
    fn item_macros_and_consts_do_not_derail_parsing() {
        let p = parse(
            "thread_local! { static S: u32 = 0; }\nconst N: usize = 4;\nstatic M: std::sync::Mutex<()> = std::sync::Mutex::new(());\nfn after() {}\n",
        );
        assert!(p.fns.iter().any(|f| f.name == "after"), "{:?}", p.fns);
    }

    #[test]
    fn param_names_and_body_tokens_are_captured() {
        let p = parse(
            "fn f(n: usize, mut names: Vec<String>, map: HashMap<String, usize>) -> usize {\n    n + 1\n}\nimpl Foo { fn m(&self, rows: usize) {} }\nfn g((a, b): (u32, u32)) {}\ntrait T { fn decl(&self, k: usize); }\n",
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let f = p.fns.iter().find(|f| f.name == "f").expect("f");
        assert_eq!(f.params, vec!["n", "names", "map"]);
        let texts: Vec<&str> = f.body.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["n", "+", "1"], "body excludes the braces");
        let m = p.fns.iter().find(|f| f.name == "m").expect("m");
        assert_eq!(m.params, vec!["self", "rows"]);
        let g = p.fns.iter().find(|f| f.name == "g").expect("g");
        assert!(g.params.is_empty(), "destructured patterns are skipped");
        let decl = p.fns.iter().find(|f| f.name == "decl").expect("decl");
        assert_eq!(decl.params, vec!["self", "k"]);
        assert!(decl.body.is_empty(), "bodiless decls have no body tokens");
    }

    #[test]
    fn turbofish_and_generics_survive() {
        let p = parse(
            "fn f<T: Clone>(v: Vec<T>) -> usize {\n    v.iter().collect::<Vec<_>>();\n    helper::<u32>(1)\n}\n",
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let f = &p.fns[0];
        assert!(f
            .facts
            .iter()
            .any(|x| matches!(x, Fact::Method { name, .. } if name == "collect")));
        assert!(f
            .facts
            .iter()
            .any(|x| matches!(x, Fact::Call { path, .. } if path == &vec!["helper".to_string()])));
    }
}
