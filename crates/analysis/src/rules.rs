//! The `simlint` rule engine: rule registry, rule scopes, and the rule
//! implementations over [`ScannedFile`]s.
//!
//! Rules fall into the three families the determinism contract needs
//! (see ARCHITECTURE.md "Determinism discipline, mechanically
//! enforced"): determinism (`hash-iter`, `wall-clock`, `unseeded-rng`,
//! `shard-nondet`), packing safety (`packing-cast`), and API discipline
//! (`ctor-validate`, `serve-coverage`, `dead-pub`). A ninth rule,
//! `bad-allow`, keeps the allowlist itself honest: malformed directives
//! and unknown rule ids are findings, not silent no-ops. Every finding
//! fails the scan; the scopes below encode this workspace's layout.

use std::collections::HashMap;

use crate::scan::{find_word, impl_self_type, Line, ScannedFile};

/// Registry metadata for one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Stable id, used in allow directives.
    pub id: &'static str,
    /// One-line description for `simlint --list-rules` and docs.
    pub summary: &'static str,
}

/// Every rule `simlint` knows, in reporting order.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        id: "hash-iter",
        summary: "no HashMap/HashSet iteration (incl. min/max over entries) in sim paths",
    },
    RuleMeta {
        id: "wall-clock",
        summary: "no Instant::now/SystemTime outside bench/test code",
    },
    RuleMeta {
        id: "unseeded-rng",
        summary: "no thread_rng/from_entropy/OsRng outside bench/test code",
    },
    RuleMeta {
        id: "shard-nondet",
        summary: "no thread-id or worker-count-dependent branches in shard executors",
    },
    RuleMeta {
        id: "packing-cast",
        summary: "as u32/u64 in packed-event/lane-payload code needs a range justification",
    },
    RuleMeta {
        id: "ctor-validate",
        summary: "public qsim constructors and setters taking sizes/rates validate-or-panic",
    },
    RuleMeta {
        id: "serve-coverage",
        summary: "every public qsim serve_* entry point is named by a qsim/tests/ property",
    },
    RuleMeta {
        id: "dead-pub",
        summary: "every pub item of library code is named outside its declaration and own tests",
    },
    RuleMeta {
        id: "bad-allow",
        summary: "allow directives parse, name known rules, and carry a justification",
    },
];

/// Path prefixes whose non-test code is a simulator hot path (scope of
/// `hash-iter`).
const SIM_PATHS: &[&str] = &["crates/qsim/src/", "crates/core/src/", "crates/hwsim/src/"];

/// Path prefixes exempt from `wall-clock`/`unseeded-rng`: the bench
/// crate, the root package's tests and the benchmark harness. The
/// carve-out is a constant, not inline allows, so product crates get no
/// escape hatch for those rules; `#[cfg(test)]` regions are exempt
/// everywhere regardless of path.
const BENCH_TEST_PREFIXES: &[&str] = &["crates/bench/", "tests/", "perfbench/"];

/// Directories exempt from `wall-clock`/`unseeded-rng` wherever they sit:
/// integration tests and criterion benches.
const BENCH_TEST_DIRS: &[&str] = &["/tests/", "/benches/"];

/// The file holding the shard executor (scope of `shard-nondet`).
const SHARD_FILE: &str = "crates/qsim/src/shard.rs";

/// The event-loop file holding the packed-event code (scope of
/// `packing-cast`).
const EVENT_FILE: &str = "crates/qsim/src/sim.rs";

/// `impl` blocks in [`EVENT_FILE`] whose casts are packing casts.
const PACKING_IMPLS: &[&str] = &["Event"];

/// Substrings of `fn` names in [`EVENT_FILE`] whose casts are packing
/// casts (lane-payload pack/unpack helpers).
const PACKING_FNS: &[&str] = &["pack", "lane", "payload", "push_arrive"];

/// The serving crate's sources: the scope of `ctor-validate` and the
/// `serve_*` entry points `serve-coverage` checks.
const QSIM_SRC: &str = "crates/qsim/src/";

/// The tests that must name every public `serve_*` entry point (corpus
/// digests and conservation properties).
const QSIM_TESTS: &str = "crates/qsim/tests/";

/// Whether `path` falls under the bench/test carve-out.
fn is_bench_test(path: &str) -> bool {
    BENCH_TEST_PREFIXES.iter().any(|p| path.starts_with(p))
        || BENCH_TEST_DIRS.iter().any(|d| path.contains(d))
}

/// One rule violation; every finding fails the scan.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-indexed source line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Context shared by the per-file rules: the file and the findings sink.
struct Ctx<'a> {
    file: &'a ScannedFile,
    out: &'a mut Vec<Finding>,
}

impl Ctx<'_> {
    /// Emits a finding for `rule` at 0-indexed line `idx` unless an
    /// inline allow suppresses it.
    fn emit(&mut self, rule: &'static str, idx: usize, message: String) {
        if self.file.allowed(idx, rule) {
            return;
        }
        self.out.push(Finding {
            rule,
            path: self.file.path.clone(),
            line: idx + 1,
            message,
        });
    }
}

/// Runs every per-file rule over `file`.
pub fn check_file(file: &ScannedFile, out: &mut Vec<Finding>) {
    let mut ctx = Ctx { file, out };
    bad_allow(&mut ctx);
    hash_iter(&mut ctx);
    wall_clock(&mut ctx);
    unseeded_rng(&mut ctx);
    shard_nondet(&mut ctx);
    packing_cast(&mut ctx);
    ctor_validate(&mut ctx);
}

/// Runs the cross-file rules over the whole scanned set.
pub fn check_workspace(files: &[ScannedFile], out: &mut Vec<Finding>) {
    serve_coverage(files, out);
    dead_pub(files, out);
}

// ---------------------------------------------------------------------------
// bad-allow
// ---------------------------------------------------------------------------

/// Malformed directives and allows naming unknown rules.
fn bad_allow(ctx: &mut Ctx<'_>) {
    let file = ctx.file;
    for (idx, msg) in &file.malformed {
        ctx.emit("bad-allow", *idx, msg.clone());
    }
    for (idx, allows) in file.allows.iter().enumerate() {
        for allow in allows {
            for rule in &allow.rules {
                if !RULES.iter().any(|r| r.id == rule) {
                    ctx.emit("bad-allow", idx, format!("unknown rule `{rule}` in allow"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// hash-iter
// ---------------------------------------------------------------------------

/// Methods whose call on a hash collection observes iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Denies iteration (and min/max over entries, which goes through
/// `iter`/`keys`/`values`) of `HashMap`/`HashSet` bindings in
/// [`SIM_PATHS`]. Keyed access — `get`, `insert`,
/// `contains_key`, `entry`, indexing — is fine: it never observes hash
/// order. Detection is name-based: pass one collects identifiers bound
/// to a hash-typed field, param, or `let`; pass two flags
/// order-observing method calls and `for … in` loops over them.
fn hash_iter(ctx: &mut Ctx<'_>) {
    if !SIM_PATHS.iter().any(|p| ctx.file.path.starts_with(p)) {
        return;
    }
    let mut bound: Vec<String> = Vec::new();
    for line in &ctx.file.lines {
        if line.in_test {
            continue;
        }
        collect_hash_bindings(&line.code, &mut bound);
    }
    if bound.is_empty() {
        return;
    }
    for (idx, line) in ctx.file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for name in &bound {
            if let Some(m) = iterates(&line.code, name) {
                ctx.emit(
                    "hash-iter",
                    idx,
                    format!(
                        "`{name}` is a hash collection; `{m}` observes hash iteration \
                         order, which is nondeterministic across processes"
                    ),
                );
            }
        }
    }
}

/// Collects identifiers bound to a `HashMap`/`HashSet` on this line.
fn collect_hash_bindings(code: &str, out: &mut Vec<String>) {
    for ty in ["HashMap", "HashSet"] {
        let mut from = 0;
        while let Some(rel) = code[from..].find(ty) {
            let at = from + rel;
            from = at + ty.len();
            // Word boundary on both sides (`HashMapLike` is not a hit).
            let before = code[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            if code[from..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric())
            {
                continue;
            }
            let head = code[..at].trim_end();
            // `name: HashMap<…>` / `name: &mut HashMap<…>` (field or param).
            let head = head.strip_suffix("mut").unwrap_or(head).trim_end();
            let head = head.strip_suffix('&').unwrap_or(head).trim_end();
            if let Some(head) = head.strip_suffix(':') {
                if let Some(name) = trailing_ident(head) {
                    push_unique(out, name);
                    continue;
                }
            }
            // `let [mut] name = HashMap::new()` and friends.
            if let Some(let_at) = code[..at].rfind("let ") {
                let binding = &code[let_at + 4..at];
                let binding = binding.trim_start().trim_start_matches("mut ").trim();
                if let Some(end) = binding.find(|c: char| !(c.is_alphanumeric() || c == '_')) {
                    if end > 0 && binding[end..].trim_start().starts_with(['=', ':']) {
                        push_unique(out, binding[..end].to_string());
                    }
                } else if !binding.is_empty() {
                    push_unique(out, binding.to_string());
                }
            }
        }
    }
}

/// The trailing identifier of `head`, if any.
fn trailing_ident(head: &str) -> Option<String> {
    let head = head.trim_end();
    let end = head.len();
    let start = head
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(0, |p| p + 1);
    if start < end {
        Some(head[start..end].to_string())
    } else {
        None
    }
}

fn push_unique(out: &mut Vec<String>, name: String) {
    if !out.contains(&name) {
        out.push(name);
    }
}

/// Whether `code` iterates the hash binding `name`; returns the
/// offending expression fragment.
fn iterates(code: &str, name: &str) -> Option<String> {
    let mut from = 0;
    while let Some(at) = find_word(&code[from..], name).map(|p| p + from) {
        let after = code[at + name.len()..].trim_start();
        if let Some(rest) = after.strip_prefix('.') {
            for m in HASH_ITER_METHODS {
                if rest.starts_with(m) && rest[m.len()..].starts_with('(') {
                    return Some(format!("{name}.{m}()"));
                }
            }
        }
        // `for x in name` / `for x in &name` / `for x in &mut name`.
        let before = code[..at].trim_end();
        let before = before.strip_suffix("mut").unwrap_or(before).trim_end();
        let before = before.strip_suffix('&').unwrap_or(before).trim_end();
        if before.ends_with(" in") || before == "in" {
            let loops = before.strip_suffix("in").unwrap_or("");
            if loops.contains("for ") && !after.starts_with('.') {
                return Some(format!("for … in {name}"));
            }
        }
        from = at + name.len();
    }
    None
}

// ---------------------------------------------------------------------------
// wall-clock / unseeded-rng
// ---------------------------------------------------------------------------

/// Denies wall-clock reads outside the bench/test carve-out: the
/// simulator's only clock is its own event time, derived from seeds.
fn wall_clock(ctx: &mut Ctx<'_>) {
    token_rule(ctx, "wall-clock", &["Instant::now", "SystemTime"], |t| {
        format!("`{t}` reads the wall clock; sim paths must derive time from the event loop")
    });
}

/// Denies ambient-entropy RNG construction outside the carve-out:
/// every stream must derive from an explicit seed.
fn unseeded_rng(ctx: &mut Ctx<'_>) {
    token_rule(
        ctx,
        "unseeded-rng",
        &["thread_rng", "from_entropy", "ThreadRng", "OsRng"],
        |t| format!("`{t}` draws ambient entropy; derive every stream from an explicit seed"),
    );
}

/// Shared token matcher for the carve-out-scoped determinism rules.
fn token_rule(
    ctx: &mut Ctx<'_>,
    rule: &'static str,
    tokens: &[&str],
    message: impl Fn(&str) -> String,
) {
    let file = ctx.file;
    if is_bench_test(&file.path) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for t in tokens {
            if line.code.contains(t) {
                ctx.emit(rule, idx, message(t));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// shard-nondet
// ---------------------------------------------------------------------------

/// Flags thread-identity probes and worker-count-dependent branches in
/// shard executor files: sharded results must be invariant to the
/// worker count, so any branch on it needs a written invariance
/// argument (inline allow).
fn shard_nondet(ctx: &mut Ctx<'_>) {
    let file = ctx.file;
    if file.path != SHARD_FILE {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        for t in ["thread::current", "ThreadId", "available_parallelism"] {
            if code.contains(t) {
                ctx.emit(
                    "shard-nondet",
                    idx,
                    format!("`{t}` in a shard executor: results must not depend on it"),
                );
            }
        }
        let branchy = find_word(code, "if").is_some()
            || find_word(code, "match").is_some()
            || find_word(code, "while").is_some();
        if branchy && code.contains("worker") {
            ctx.emit(
                "shard-nondet",
                idx,
                "branch on the worker count in a shard executor: justify result-invariance \
                 with an allow"
                    .into(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// packing-cast
// ---------------------------------------------------------------------------

/// Flags `as u32`/`as u64` in packed-event and lane-payload code
/// unless the line carries an allow with a range justification: a
/// silent truncation in the packing layer corrupts event identity.
fn packing_cast(ctx: &mut Ctx<'_>) {
    let file = ctx.file;
    if file.path != EVENT_FILE {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let in_scope = PACKING_IMPLS.contains(&line.impl_name.as_str())
            || PACKING_FNS.iter().any(|f| line.fn_name.contains(f));
        if !in_scope {
            continue;
        }
        for ty in ["u32", "u64"] {
            let mut from = 0;
            while let Some(at) = find_word(&line.code[from..], "as").map(|p| p + from) {
                let after = line.code[at + 2..].trim_start();
                if after.starts_with(ty)
                    && !after[ty.len()..]
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    ctx.emit(
                        "packing-cast",
                        idx,
                        format!(
                            "`as {ty}` in packed-event/lane-payload code: truncation here \
                             corrupts event identity; allowlist with a range justification"
                        ),
                    );
                    break;
                }
                from = at + 2;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ctor-validate
// ---------------------------------------------------------------------------

/// Enforces the documented validate-or-panic builder policy
/// (ARCHITECTURE.md "Validation policy"): a `pub fn new` or a builder
/// setter (the [`is_setter`] shape) taking sizes or rates
/// (`usize`/`f64` parameters) must either assert/panic in its body or
/// document `# Panics` (delegating constructors).
fn ctor_validate(ctx: &mut Ctx<'_>) {
    let file = ctx.file;
    if !file.path.starts_with(QSIM_SRC) {
        return;
    }
    let lines = &file.lines;
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.trim();
        let name = code
            .strip_prefix("pub fn ")
            .and_then(|rest| words(rest).next());
        let Some(name) = name.filter(|&n| n == "new" || is_setter(&lines[idx..])) else {
            continue;
        };
        // Gather the signature (to the body `{` or a `;`) and the
        // parameter list within the outermost parens.
        let mut sig = String::new();
        let mut body_start = None;
        for (j, l) in lines.iter().enumerate().skip(idx) {
            sig.push_str(&l.code);
            sig.push(' ');
            if let Some(brace) = sig.find('{') {
                sig.truncate(brace);
                body_start = Some(j);
                break;
            }
            if sig.contains(';') {
                break;
            }
        }
        let params = match (sig.find('('), sig.rfind(')')) {
            (Some(open), Some(close)) if close > open => &sig[open + 1..close],
            _ => continue,
        };
        let sensitive = find_word(params, "usize").is_some() || find_word(params, "f64").is_some();
        if !sensitive {
            continue;
        }
        // Does the doc comment above declare `# Panics`?
        let mut documented = false;
        for l in lines[..idx].iter().rev() {
            let is_doc = l.comment.starts_with('/') || l.code.trim().starts_with("#[");
            let blank = l.code.trim().is_empty() && l.comment.is_empty();
            if !is_doc && !blank {
                break;
            }
            if l.comment.contains("# Panics") {
                documented = true;
                break;
            }
        }
        // Does the body validate (assert/panic/expect)?
        let mut validates = false;
        if let Some(start) = body_start {
            let mut depth = 0i32;
            for l in lines.iter().skip(start) {
                for c in l.code.chars() {
                    match c {
                        '{' => depth += 1,
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if l.code.contains("assert")
                    || l.code.contains("panic!")
                    || l.code.contains(".expect(")
                {
                    validates = true;
                }
                if depth <= 0 && l.code.contains('}') {
                    break;
                }
            }
        }
        if !documented && !validates {
            ctx.emit(
                "ctor-validate",
                idx,
                format!(
                    "`pub fn {name}` takes usize/f64 arguments but neither validates \
                     (assert/panic) nor documents `# Panics`; qsim constructors and builder \
                     setters validate-or-panic"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// serve-coverage
// ---------------------------------------------------------------------------

/// Cross-file rule: every `pub fn serve*` in the serving crate must be
/// named by at least one test under [`QSIM_TESTS`] — the
/// repo's corpus-digest/conservation discipline, enforced
/// mechanically. Adding a `serve_*` entry point without pinning it
/// fails the build.
fn serve_coverage(files: &[ScannedFile], out: &mut Vec<Finding>) {
    let mut entry_points: Vec<(String, usize, usize)> = Vec::new(); // name, file idx, line idx
    for (fi, f) in files.iter().enumerate() {
        if !f.path.starts_with(QSIM_SRC) {
            continue;
        }
        for (idx, line) in f.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = line.code.trim();
            if let Some(rest) = code.strip_prefix("pub fn ") {
                let name_end = rest
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                let name = &rest[..name_end];
                if name.starts_with("serve") && !entry_points.iter().any(|(n, _, _)| n == name) {
                    entry_points.push((name.to_string(), fi, idx));
                }
            }
        }
    }
    if entry_points.is_empty() {
        return;
    }
    let has_tests = files.iter().any(|f| f.path.starts_with(QSIM_TESTS));
    for (name, fi, idx) in entry_points {
        let file = &files[fi];
        if file.allowed(idx, "serve-coverage") {
            continue;
        }
        let covered = has_tests
            && files.iter().any(|f| {
                f.path.starts_with(QSIM_TESTS)
                    && f.lines.iter().any(|l| find_word(&l.code, &name).is_some())
            });
        if !covered {
            out.push(Finding {
                rule: "serve-coverage",
                path: file.path.clone(),
                line: idx + 1,
                message: format!(
                    "public entry point `{name}` is not named by any test under \
                     `{QSIM_TESTS}`; add a corpus digest or conservation property pinning it"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// dead-pub
// ---------------------------------------------------------------------------

/// Item keywords whose `pub` declarations `dead-pub` checks.
const PUB_ITEM_KINDS: &[&str] = &["fn", "const", "static", "struct", "enum", "trait", "type"];

/// A `pub` item declared in library code.
struct PubItem<'a> {
    kind: &'a str,
    name: &'a str,
    /// Index of the declaring file.
    file: usize,
    /// 0-indexed declaration line.
    line: usize,
    /// A builder setter: a `pub fn` taking `mut self` and more.
    setter: bool,
}

/// Cross-file rule: every `pub` item declared in the non-test code of a
/// library source (`crates/*/src/**` or `src/**`, binaries excluded) is
/// named somewhere else — in any other scanned file (tests, benches,
/// examples and perfbench included), or in its own file's non-test
/// code outside its declaration and its `impl` headers. An item only
/// its own unit tests or a `pub use` re-export name is dead public API:
/// delete it with those tests, or allowlist it with the extension seam
/// that keeps it public.
///
/// A builder setter is live only where a line calls it as `.name(`
/// with an argument, so a same-named getter's `.name()` does not keep
/// it alive.
///
/// Names match as whole words of code, so an item sharing its name with
/// a live item elsewhere (a common method name like `len`) stays
/// unflagged: the rule finds dead names, not every dead item.
fn dead_pub(files: &[ScannedFile], out: &mut Vec<Finding>) {
    let mut items: Vec<PubItem<'_>> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        if !declares_api(&f.path) {
            continue;
        }
        for (idx, line) in f.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            if let Some((kind, name)) = pub_item(&line.code) {
                items.push(PubItem {
                    kind,
                    name,
                    file: fi,
                    line: idx,
                    setter: kind == "fn" && is_setter(&f.lines[idx..]),
                });
            }
        }
    }
    // One index per scan: every (file, line) whose code names a declared
    // item. Re-exports are not uses, so `pub use` statements are skipped.
    let mut named_at: HashMap<&str, Vec<(usize, usize)>> =
        items.iter().map(|it| (it.name, Vec::new())).collect();
    for (fi, f) in files.iter().enumerate() {
        let mut in_pub_use = false;
        for (idx, line) in f.lines.iter().enumerate() {
            if in_pub_use || line.code.trim_start().starts_with("pub use ") {
                in_pub_use = !line.code.contains(';');
                continue;
            }
            for word in words(&line.code) {
                if let Some(at) = named_at.get_mut(word) {
                    if at.last() != Some(&(fi, idx)) {
                        at.push((fi, idx));
                    }
                }
            }
        }
    }
    for item in &items {
        let file = &files[item.file];
        // A use is any line of another file, or a non-test line of the
        // declaring file other than the declaration and its impl headers;
        // a setter's use must also call it with an argument.
        let is_use = |&(fi, idx): &(usize, usize)| {
            let line = &files[fi].lines[idx];
            (fi != item.file
                || idx != item.line && !line.in_test && !opens_impl_of(&line.code, item.name))
                && (!item.setter || calls_with_argument(&line.code, item.name))
        };
        if named_at[item.name].iter().any(is_use) || file.allowed(item.line, "dead-pub") {
            continue;
        }
        let named = if item.setter {
            "is a builder setter no line calls with an argument"
        } else {
            "is named only by its declaration, its impl headers, its own tests or a re-export"
        };
        out.push(Finding {
            rule: "dead-pub",
            path: file.path.clone(),
            line: item.line + 1,
            message: format!(
                "`pub {} {}` {named}; delete it, or allowlist the extension seam that keeps \
                 it public",
                item.kind, item.name
            ),
        });
    }
}

/// Whether the `pub fn` whose declaration starts `lines` takes
/// `mut self` and at least one more argument. The signature is read up
/// to the first line that closes a parenthesis or opens the body.
fn is_setter(lines: &[Line]) -> bool {
    let end = lines.iter().position(|l| l.code.contains([')', '{']));
    let signature: Vec<&str> = lines[..=end.unwrap_or(0)]
        .iter()
        .map(|l| l.code.as_str())
        .collect();
    signature
        .join(" ")
        .split_once('(')
        .and_then(|(_, params)| params.trim_start().strip_prefix("mut self"))
        .and_then(|rest| rest.trim_start().strip_prefix(','))
        .is_some_and(|rest| !rest.trim_start().starts_with(')'))
}

/// Whether `code` calls `.name(` with an argument: anything but `)`
/// after the parenthesis, or the line's end (a call broken over lines).
fn calls_with_argument(code: &str, name: &str) -> bool {
    let call = format!(".{name}(");
    code.match_indices(&call)
        .any(|(at, _)| !code[at + call.len()..].trim_start().starts_with(')'))
}

/// Whether `code` opens an `impl` block whose self type is `name`.
fn opens_impl_of(code: &str, name: &str) -> bool {
    let code = code.trim_start();
    find_word(code, "impl") == Some(0) && impl_self_type(code) == Some(name)
}

/// Whether `path` is library source whose `pub` items are API:
/// `crates/*/src/**` or the facade's `src/**`, binaries excluded.
fn declares_api(path: &str) -> bool {
    let in_src = path.starts_with("src/")
        || path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"));
    in_src && !path.starts_with("src/bin/") && !path.contains("/src/bin/")
}

/// The kind and name of a `pub` item declared on this line of code
/// (`pub(crate)` and other restricted visibilities are not API).
fn pub_item(code: &str) -> Option<(&'static str, &str)> {
    let tokens: Vec<&str> = code.split_whitespace().take(4).collect();
    let (kind, name) = match tokens.as_slice() {
        ["pub", "const" | "unsafe" | "async", "fn", name, ..] => ("fn", *name),
        ["pub", kind, name, ..] => (*kind, *name),
        _ => return None,
    };
    let kind = *PUB_ITEM_KINDS.iter().find(|k| **k == kind)?;
    Some((kind, words(name).next()?))
}

/// The identifiers in `code`, in order (number literals excluded).
fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}
