//! A lightweight recursive-descent Rust parser for the call-graph lint rule.
//!
//! [`crate::scan`] gives the rules comment/string/`cfg(test)`-aware
//! *lines*; this module turns those lines into just enough structure for
//! call-graph analysis: a token stream, the item tree (modules,
//! impls, fns, `use` declarations), and per-function **facts** — calls,
//! method calls, macro invocations and slice indexing. It is
//! deliberately not a full Rust grammar (`syn` would drag a dependency
//! across the shim boundary the lint polices): expression structure
//! beyond the facts is skipped with balanced-delimiter scanning, which
//! is exactly as much as the call-graph rule in [`crate::semantic`]
//! needs.
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
    Call { path: Vec<String>, line: usize },
    /// A method call `recv.name(…)`. `recv` is the trailing identifier
    /// chain of the receiver (`["self", "cache"]` for
    /// `self.cache.len()`), empty when the receiver is a compound
    /// expression. `zero_args` is true for an empty argument list.
    Method {
        name: String,
        recv: Vec<String>,
        zero_args: bool,
        line: usize,
    },
    /// A macro invocation `name!(…)`.
    Macro { name: String, line: usize },
    /// A slice/array index expression `expr[…]`.
    Index { line: usize },
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
}

/// A parse diagnostic. The workspace must parse diagnostic-free (pinned
/// by a test); diagnostics on arbitrary input are recoverable — the
/// parser skips ahead instead of aborting.
#[derive(Debug, Clone)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

/// A fully parsed source file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    pub path: String,
    pub uses: Vec<UseDecl>,
    pub fns: Vec<FnDef>,
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

/// Where a brace-less closure body ends: at any token that can close
/// an expression, or a match arm's `=>`.
const CLOSURE_STOPS: &[&str] = &[",", ";", ")", "]", "=>"];

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

/// Parses a scanned file. Never panics; malformed regions surface as
/// [`ParseError`]s and are skipped.
pub fn parse_file(file: &ScannedFile) -> ParsedFile {
    let toks = lex(file);
    let mut p = Parser {
        toks,
        pos: 0,
        out: ParsedFile {
            path: file.path.clone(),
            uses: Vec::new(),
            fns: Vec::new(),
            errors: Vec::new(),
            raw_lines: file.lines.iter().map(|l| l.raw.clone()).collect(),
        },
    };
    let mut modules = Vec::new();
    p.items(&mut modules, None, usize::MAX);
    p.out
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    out: ParsedFile,
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
        self.peek()
            .map_or(self.out.raw_lines.len().max(1), |t| t.line)
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
                "static" | "type" => self.skip_to_semi(),
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
        if self.peek_text() == "(" {
            self.skip_balanced("(", ")");
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
            sig: self.out.raw_line(fn_tok_line),
            in_test,
            facts: Vec::new(),
        };
        if self.eat("{") {
            let mut facts = Vec::new();
            self.scan(&mut facts, &[]);
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

    /// Scans expression tokens, emitting facts, up to an unmatched `}`
    /// or one of `stops`, which it leaves unconsumed: a body stops at its
    /// `}` only, a `(…)`/`[…]` group at its closer too, and a brace-less
    /// closure body at [`CLOSURE_STOPS`].
    fn scan(&mut self, facts: &mut Vec<Fact>, stops: &[&str]) {
        while let Some(t) = self.peek().cloned() {
            if t.text == "}" || stops.contains(&t.text.as_str()) {
                return;
            }
            match t.text.as_str() {
                "{" => self.group(facts, "}"),
                "(" => self.group(facts, ")"),
                "[" => {
                    // An index when the previous token ends an
                    // expression; otherwise an array literal or type.
                    if self.pos > 0 && self.tok_ends_expr(self.pos - 1) && !t.in_test {
                        facts.push(Fact::Index { line: t.line });
                    }
                    self.group(facts, "]");
                }
                "." => self.method_or_field(facts),
                "#" => {
                    // Statement or expression attribute.
                    self.pos += 1;
                    self.eat("!");
                    if self.peek_text() == "[" {
                        self.skip_balanced("[", "]");
                    }
                }
                "|" | "||" => {
                    if !self.closure_expr(facts) {
                        self.pos += 1;
                    }
                }
                _ if t.kind == TokKind::Ident => self.ident_in_body(facts, &t),
                _ => self.pos += 1,
            }
        }
    }

    /// Scans the group whose opener is at the cursor, through `close`.
    fn group(&mut self, facts: &mut Vec<Fact>, close: &str) {
        self.pos += 1;
        self.scan(facts, &[close]);
        self.eat(close);
    }

    /// Parses a closure at the cursor (`|` or `||`): its parameter list
    /// is skipped and its body scanned for facts. Returns `false` when
    /// the token is a binary/pattern `|` (the previous token ends an
    /// expression and no `move` precedes) or the parameter list never
    /// closes — the caller then treats the token as plain punctuation.
    fn closure_expr(&mut self, facts: &mut Vec<Fact>) -> bool {
        let open = match self.peek() {
            Some(t) if t.text == "|" || t.text == "||" => t.text.clone(),
            _ => return false,
        };
        let by_move = self.pos > 0 && self.toks[self.pos - 1].text == "move";
        if !by_move && self.pos > 0 && self.tok_ends_expr(self.pos - 1) {
            return false; // binary `|`/`||` between expressions
        }
        let save = self.pos;
        self.pos += 1; // opening `|` (or the whole `||`)
        if open == "|" {
            // Parameter list up to the closing `|`.
            let mut depth = 0usize;
            loop {
                match self.peek_text() {
                    "|" if depth == 0 => {
                        self.pos += 1;
                        break;
                    }
                    "(" | "[" => depth += 1,
                    ")" | "]" if depth > 0 => depth -= 1,
                    // Terminators a parameter list cannot contain (or
                    // EOF): this was a pattern `|` after all — rewind.
                    "" | ")" | "]" | "}" | "{" | ";" | "=>" | "||" | "=" => {
                        self.pos = save;
                        return false;
                    }
                    _ => {}
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
        if self.peek_text() == "{" {
            self.group(facts, "}");
        } else {
            self.scan(facts, CLOSURE_STOPS);
        }
        true
    }

    /// Handles an identifier inside a body: path call, macro, or plain
    /// name. Keywords and other idents fall through.
    fn ident_in_body(&mut self, facts: &mut Vec<Fact>, t: &Tok) {
        self.pos += 1;
        if is_expr_keyword(&t.text) {
            return;
        }
        // Collect the full `a::b::c` path (turbofish generics skipped).
        let mut path = vec![t.text.clone()];
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
                if !t.in_test {
                    let name = path.pop().unwrap_or_default();
                    facts.push(Fact::Macro { name, line: t.line });
                }
                match self.peek_text() {
                    "(" => self.group(facts, ")"),
                    "[" => self.group(facts, "]"),
                    "{" => self.group(facts, "}"),
                    _ => {}
                }
            }
            "(" => {
                if !t.in_test {
                    facts.push(Fact::Call { path, line: t.line });
                }
                self.group(facts, ")");
            }
            _ => {}
        }
    }

    /// Handles `.name(…)` / `.name::<T>(…)` / `.await` / field access /
    /// tuple index. The cursor sits on `.`.
    fn method_or_field(&mut self, facts: &mut Vec<Fact>) {
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

        self.pos += 1; // `.`
        let (name, line, in_test) = match self.peek() {
            Some(n) if n.kind == TokKind::Ident => (n.text.clone(), n.line, n.in_test),
            _ => return, // tuple index `.0`
        };
        self.pos += 1;
        if self.peek_text() == "::" && self.peek_at(1) == "<" {
            self.pos += 1;
            self.skip_angles();
        }
        if self.peek_text() == "(" {
            if !in_test {
                let zero_args = self.peek_at(1) == ")";
                facts.push(Fact::Method {
                    name,
                    recv,
                    zero_args,
                    line,
                });
            }
            self.group(facts, ")");
        }
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
        // In straight-line code, in loop headers and bodies, in a pool
        // region's closure, in brace-less closures that end at `,` and
        // (a char-pattern `|` read as a closure) at `=>`, and in indexes
        // after a call and after another index. An array literal is no
        // index.
        let p = parse(concat!(
            "fn f(v: &[u32], out: &mut [f32], grid: &[[u32; 2]]) {\n",
            "    helper(v);\n",
            "    a::b::g();\n",
            "    v.iter().count();\n",
            "    let x = v[0];\n",
            "    panic!(\"no\");\n",
            "    let arr = [1, 2];\n",
            "    for i in (0..rows(v)).rev() {\n",
            "        shrink(v[i]);\n",
            "    }\n",
            "    while let Some(t) = next_tok(v) {\n",
            "        seen(t);\n",
            "    }\n",
            "    pool::run_chunks(out, 1, 4, |first, run| { grow(first); });\n",
            "    let pick = match x { 0 => |y: u32| odd(y), _ => |y: u32| even(y) };\n",
            "    match x as u8 as char { 'a' | 'b' | 'c' => grow(1), _ => grow(2) }\n",
            "    let y = key(x)[1] + grid[0][1];\n",
            "}\n",
        ));
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let facts: Vec<String> = p.fns[0]
            .facts
            .iter()
            .map(|fact| match fact {
                Fact::Call { path, line } => format!("{line}: {}()", path.join("::")),
                Fact::Method { name, line, .. } => format!("{line}: .{name}()"),
                Fact::Macro { name, line } => format!("{line}: {name}!"),
                Fact::Index { line } => format!("{line}: []"),
            })
            .collect();
        assert_eq!(
            facts,
            [
                "2: helper()",
                "3: a::b::g()",
                "4: .iter()",
                "4: .count()",
                "5: []",
                "6: panic!",
                "8: rows()",
                "8: .rev()",
                "9: shrink()",
                "9: []",
                "11: Some()",
                "11: next_tok()",
                "12: seen()",
                "14: pool::run_chunks()",
                "14: grow()",
                "15: odd()",
                "15: even()",
                "16: grow()",
                "16: grow()",
                "17: key()",
                "17: []",
                "17: []",
                "17: []",
            ]
        );
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
