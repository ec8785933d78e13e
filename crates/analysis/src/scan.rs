//! A hand-rolled lexical scanner for Rust sources.
//!
//! `simlint` deliberately does not parse Rust — a full grammar would
//! need an external crate (the build environment is offline) and the
//! rules only need *lexical* facts with a little structure on top:
//!
//! * which bytes are code vs. comment vs. string-literal content
//!   (token rules must not fire inside `"Instant::now"` in a doc
//!   string, and allow directives live in comments);
//! * which lines sit inside `#[cfg(test)]` items or `#[test]`
//!   functions (test code is exempt from the determinism rules);
//! * the innermost enclosing `impl` block and `fn` item per line (the
//!   packing-cast rule is scoped to the packed-event code);
//! * the inline allowlist, `// simlint: allow(<rule>) -- <why>`.
//!
//! The scanner is a char-level state machine over the whole file
//! (line comments, nested block comments, plain/raw/byte strings,
//! char literals vs. lifetimes) followed by a brace-depth pass that
//! tracks scopes and `cfg(test)` regions. String-literal *contents*
//! are blanked to spaces in the `code` view; the quotes survive so
//! code structure stays readable in messages.

/// One inline allowlist entry: `// simlint: allow(rule_a, rule_b) --
/// justification`. An entry with no `--`-separated justification is
/// rejected at parse time (the `bad-allow` rule), so every suppression
/// in the tree carries its reasoning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule ids the directive suppresses.
    pub rules: Vec<String>,
    /// The mandatory free-text justification after `--`.
    pub justification: String,
}

/// One source line, post-lex.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The line with comments removed and string/char-literal contents
    /// blanked to spaces (delimiters kept).
    pub code: String,
    /// The comment text carried by the line (line + block comments).
    pub comment: String,
    /// Whether the line sits inside a `#[cfg(test)]` item or a
    /// `#[test]` function (including the attribute line itself).
    pub in_test: bool,
    /// Name of the innermost enclosing `fn`, or empty.
    pub fn_name: String,
    /// Self type of the innermost enclosing `impl`, or empty.
    pub impl_name: String,
}

/// A scanned source file: lexed lines plus resolved allow directives.
#[derive(Debug, Clone, Default)]
pub struct ScannedFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Lexed lines, 0-indexed (`lines[0]` is source line 1).
    pub lines: Vec<Line>,
    /// Effective allows per line (same indexing as `lines`). A
    /// directive on a comment-only line attaches to the next line that
    /// carries code; a trailing directive attaches to its own line.
    pub allows: Vec<Vec<Allow>>,
    /// Malformed directives: (line index, error message).
    pub malformed: Vec<(usize, String)>,
}

impl ScannedFile {
    /// Whether `rule` is allowlisted on 0-indexed line `idx`.
    pub fn allowed(&self, idx: usize, rule: &str) -> bool {
        self.allows
            .get(idx)
            .is_some_and(|a| a.iter().any(|al| al.rules.iter().any(|r| r == rule)))
    }
}

/// Lexes `text` into a [`ScannedFile`] under the given
/// workspace-relative `path`.
pub fn scan(path: &str, text: &str) -> ScannedFile {
    let raw_lines = strip(text);
    let mut lines: Vec<Line> = raw_lines
        .into_iter()
        .map(|(code, comment)| Line {
            code,
            comment,
            ..Line::default()
        })
        .collect();
    mark_scopes(&mut lines);
    let (allows, malformed) = resolve_allows(&lines);
    ScannedFile {
        path: path.to_string(),
        lines,
        allows,
        malformed,
    }
}

/// Lexer state for the char-level pass.
enum LexState {
    /// Plain code.
    Normal,
    /// Inside `// …` until end of line.
    LineComment,
    /// Inside `/* … */`, with nesting depth.
    BlockComment(u32),
    /// Inside a plain (escaped) string literal.
    Str,
    /// Inside a raw string literal closed by `"` plus `n` hashes.
    RawStr(u32),
    /// Inside a char literal.
    CharLit,
}

/// Splits `text` into per-line `(code, comment)` pairs with
/// string-literal contents blanked.
fn strip(text: &str) -> Vec<(String, String)> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = LexState::Normal;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(state, LexState::LineComment) {
                state = LexState::Normal;
            }
            out.push((std::mem::take(&mut code), std::mem::take(&mut comment)));
            i += 1;
            continue;
        }
        match state {
            LexState::Normal => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = LexState::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = LexState::BlockComment(1);
                    i += 2;
                    continue;
                }
                // Raw (and raw byte) strings: r"…", r#"…"#, br"…".
                let ident_tail = code
                    .chars()
                    .last()
                    .is_some_and(|p| p.is_alphanumeric() || p == '_');
                if (c == 'r' || c == 'b') && !ident_tail {
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') && (hashes > 0 || j > i + 1 || c == 'r') {
                        for &d in &chars[i..=j] {
                            code.push(d);
                        }
                        state = LexState::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                }
                if c == '"' {
                    code.push('"');
                    state = LexState::Str;
                    i += 1;
                    continue;
                }
                if c == '\'' && !ident_tail {
                    // Distinguish char literals from lifetimes: a char
                    // literal is 'x' or an escape; a lifetime never
                    // closes with a quote two chars on.
                    if chars.get(i + 1) == Some(&'\\') || chars.get(i + 2) == Some(&'\'') {
                        code.push('\'');
                        state = LexState::CharLit;
                        i += 1;
                        continue;
                    }
                }
                code.push(c);
                i += 1;
            }
            LexState::LineComment => {
                comment.push(c);
                i += 1;
            }
            LexState::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        LexState::Normal
                    } else {
                        LexState::BlockComment(depth - 1)
                    };
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = LexState::BlockComment(depth + 1);
                    i += 2;
                    continue;
                }
                comment.push(c);
                i += 1;
            }
            LexState::Str => {
                if c == '\\' {
                    code.push(' ');
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                if c == '"' {
                    code.push('"');
                    state = LexState::Normal;
                } else {
                    code.push(' ');
                }
                i += 1;
            }
            LexState::RawStr(hashes) => {
                if c == '"' {
                    let mut k = 0u32;
                    while k < hashes && chars.get(i + 1 + k as usize) == Some(&'#') {
                        k += 1;
                    }
                    if k == hashes {
                        code.push('"');
                        for _ in 0..hashes {
                            code.push('#');
                        }
                        state = LexState::Normal;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                code.push(' ');
                i += 1;
            }
            LexState::CharLit => {
                if c == '\\' {
                    code.push(' ');
                    if chars.get(i + 1).is_some() {
                        code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                if c == '\'' {
                    code.push('\'');
                    state = LexState::Normal;
                } else {
                    code.push(' ');
                }
                i += 1;
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        out.push((code, comment));
    }
    out
}

/// One entry of the scope stack built by [`mark_scopes`].
struct Scope {
    /// Brace depth at which the scope opened.
    depth: usize,
    /// Whether the scope (or an ancestor) is test-gated.
    test: bool,
    /// `fn` name if the scope is a function body.
    fn_name: Option<String>,
    /// `impl` self type if the scope is an impl block.
    impl_name: Option<String>,
}

/// Second pass: walks the code view tracking brace depth, classifying
/// each opened block from the header accumulated since the previous
/// block boundary, and stamping per-line test/fn/impl context.
fn mark_scopes(lines: &mut [Line]) {
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth = 0usize;
    let mut header = String::new();
    for line in lines.iter_mut() {
        let code = line.code.clone();
        for c in code.chars() {
            match c {
                '{' => {
                    let inherited_test = scopes.iter().any(|s| s.test);
                    let (test, fn_name, impl_name) = classify_header(&header);
                    scopes.push(Scope {
                        depth,
                        test: inherited_test || test,
                        fn_name,
                        impl_name,
                    });
                    header.clear();
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    while scopes.last().is_some_and(|s| s.depth >= depth) {
                        scopes.pop();
                    }
                    header.clear();
                }
                ';' => header.clear(),
                _ => header.push(c),
            }
        }
        header.push(' ');
        line.in_test = scopes.iter().any(|s| s.test) || header.contains("cfg(test");
        line.fn_name = scopes
            .iter()
            .rev()
            .find_map(|s| s.fn_name.clone())
            .unwrap_or_default();
        line.impl_name = scopes
            .iter()
            .rev()
            .find_map(|s| s.impl_name.clone())
            .unwrap_or_default();
    }
}

/// Classifies a block header: is it test-gated, a `fn`, an `impl`?
fn classify_header(header: &str) -> (bool, Option<String>, Option<String>) {
    let test = header.contains("cfg(test") || header.contains("#[test]");
    let mut fn_name = None;
    let tokens: Vec<&str> = tokenize(header);
    for (i, t) in tokens.iter().enumerate() {
        if *t == "fn" {
            fn_name = tokens.get(i + 1).map(|s| s.to_string());
        }
    }
    (test, fn_name, impl_self_type(header).map(str::to_string))
}

/// The self type of the first `impl` in `header`: `impl<T> Foo for
/// Bar<T>` names `Bar`, `impl Foo` names `Foo`.
pub(crate) fn impl_self_type(header: &str) -> Option<&str> {
    let tokens = tokenize(header);
    let at = tokens.iter().position(|t| *t == "impl")?;
    let rest = &tokens[at + 1..];
    match rest.iter().position(|t| *t == "for") {
        Some(f) => rest.get(f + 1).copied(),
        None => rest.first().copied(),
    }
}

/// Splits a header into identifier-ish tokens, dropping generics and
/// punctuation (`impl<T: Ord> Foo for Bar<T>` → `impl Foo for Bar`).
fn tokenize(header: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = header.as_bytes();
    let mut i = 0;
    let mut angle = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '<' {
            angle += 1;
            i += 1;
            continue;
        }
        if c == '>' {
            angle = angle.saturating_sub(1);
            i += 1;
            continue;
        }
        if angle == 0 && (c.is_ascii_alphanumeric() || c == '_') {
            let start = i;
            while i < bytes.len() && {
                let d = bytes[i] as char;
                d.is_ascii_alphanumeric() || d == '_'
            } {
                i += 1;
            }
            out.push(&header[start..i]);
            continue;
        }
        i += 1;
    }
    out
}

/// Third pass: parses `simlint:` directives out of comments and
/// attaches them to the lines they govern. Doc comments (`///`,
/// `//!`) are documentation, not suppression: directive syntax inside
/// them (e.g. docs *describing* the allowlist) is ignored.
fn resolve_allows(lines: &[Line]) -> (Vec<Vec<Allow>>, Vec<(usize, String)>) {
    let mut allows: Vec<Vec<Allow>> = vec![Vec::new(); lines.len()];
    let mut malformed = Vec::new();
    let mut pending: Vec<Allow> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let mut here: Vec<Allow> = Vec::new();
        let is_doc = matches!(line.comment.trim_start().chars().next(), Some('/' | '!'));
        if !is_doc && line.comment.contains("simlint:") {
            match parse_directive(&line.comment) {
                Ok(a) => here.push(a),
                Err(e) => malformed.push((idx, e)),
            }
        }
        if line.code.trim().is_empty() {
            pending.append(&mut here);
        } else {
            let mut effective = std::mem::take(&mut pending);
            effective.append(&mut here);
            allows[idx] = effective;
        }
    }
    (allows, malformed)
}

/// Parses one `simlint: allow(a, b) -- justification` directive.
fn parse_directive(comment: &str) -> Result<Allow, String> {
    let at = comment.find("simlint:").expect("caller checked");
    let rest = comment[at + "simlint:".len()..].trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        return Err("directive must be `simlint: allow(<rule, ...>) -- <justification>`".into());
    };
    let Some(close) = args.find(')') else {
        return Err("unclosed `allow(` in simlint directive".into());
    };
    let rules: Vec<String> = args[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("simlint allow directive names no rules".into());
    }
    let tail = args[close + 1..].trim_start();
    let Some(justification) = tail.strip_prefix("--") else {
        return Err("simlint allow directive is missing its `-- <justification>`".into());
    };
    let justification = justification.trim().to_string();
    if justification.is_empty() {
        return Err("simlint allow directive has an empty justification".into());
    }
    Ok(Allow {
        rules,
        justification,
    })
}

/// Whether `code` contains `word` delimited by non-identifier chars —
/// the matcher token rules use instead of a regex engine.
pub fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let end = at + word.len();
        let after_ok = !code[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len().max(1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = scan("x.rs", "let a = \"Instant::now\"; // Instant::now\n");
        assert!(!f.lines[0].code.contains("Instant"));
        assert!(f.lines[0].comment.contains("Instant::now"));
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        let f = scan("x.rs", "let a = r#\"thread_rng \\\" \"# ; let b = 1;\n");
        assert!(!f.lines[0].code.contains("thread_rng"));
        assert!(f.lines[0].code.contains("let b = 1;"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let f = scan(
            "x.rs",
            "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\n",
        );
        assert!(f.lines[0].code.contains("str"));
        assert!(f.lines[1].code.contains("let c ="));
        assert!(!f.lines[1].code.contains('x'));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live2() {}\n";
        let f = scan("x.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn scopes_track_impl_and_fn_names() {
        let src = "impl Event {\n    fn pack(a: u64) -> u32 {\n        a as u32\n    }\n}\n";
        let f = scan("x.rs", src);
        assert_eq!(f.lines[2].impl_name, "Event");
        assert_eq!(f.lines[2].fn_name, "pack");
    }

    #[test]
    fn trait_impls_name_the_self_type() {
        let src = "impl<T: Ord> Router for MyRouter<T> {\n    fn go(&self) {}\n}\n";
        let f = scan("x.rs", src);
        assert_eq!(f.lines[1].impl_name, "MyRouter");
    }

    #[test]
    fn allows_attach_to_the_next_code_line() {
        let src = "// simlint: allow(wall-clock) -- bench-only timer\nlet t = now();\n";
        let f = scan("x.rs", src);
        assert!(f.allowed(1, "wall-clock"));
        assert!(!f.allowed(0, "wall-clock"));
    }

    #[test]
    fn trailing_allows_attach_to_their_own_line() {
        let src = "let t = now(); // simlint: allow(wall-clock, hash-iter) -- two rules\n";
        let f = scan("x.rs", src);
        assert!(f.allowed(0, "wall-clock"));
        assert!(f.allowed(0, "hash-iter"));
    }

    #[test]
    fn directives_without_justification_are_malformed() {
        let f = scan("x.rs", "let t = 1; // simlint: allow(wall-clock)\n");
        assert_eq!(f.malformed.len(), 1);
        assert!(f.malformed[0].1.contains("justification"));
    }

    #[test]
    fn doc_comments_never_carry_directives() {
        let src = "/// Use `// simlint: allow(wall-clock) -- why` inline.\n\
                   //! Syntax: `simlint: allow(rule)`.\n\
                   let t = Instant::now();\n";
        let f = scan("x.rs", src);
        assert!(f.malformed.is_empty());
        assert!(!f.allowed(2, "wall-clock"));
    }

    #[test]
    fn word_matching_respects_identifier_boundaries() {
        assert!(find_word("serve_routed(x)", "serve").is_none());
        assert!(find_word("spec.serve(x)", "serve").is_some());
        assert!(find_word("xserve", "serve").is_none());
    }
}
