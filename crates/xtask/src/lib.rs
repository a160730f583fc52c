//! `kdd-lint`: a dependency-free static-analysis engine over the KDD
//! workspace.
//!
//! Some invariants KDD's correctness story rests on are invisible to the
//! compiler and to clippy: the I/O path must degrade through typed errors
//! rather than panicking mid-stripe, only the engine may write the raw
//! substrate, its `Result`s must not be dropped, and endurance counters
//! must survive years of compressed wear without overflowing. This crate
//! enforces those rules mechanically on every PR (`cargo run -p xtask --
//! lint`).
//! What a type-aware checker can see is left to one: the root
//! `clippy.toml` bans wall-clock reads and default-hasher maps,
//! `clippy::indexing_slicing` audits indexing, and a `const` assertion in
//! `kdd-core` keeps the engine `Send` (DESIGN.md "Static analysis &
//! invariants").
//!
//! ## Architecture
//!
//! The engine is a symbol-aware, multi-pass pipeline (still free of
//! third-party dependencies):
//!
//! 1. **Lexer** ([`lex`]) — one real token stream per file; comments,
//!    strings, raw strings, char literals, and lifetimes are disambiguated
//!    exactly once and shared by every rule.
//! 2. **Item extraction** ([`items`]) — functions (with impl owner and
//!    `Result`-ness), structs, impl blocks, `use` aliases, call sites, and
//!    local `let`-binding types per file.
//! 3. **Call graph** ([`callgraph`]) — workspace-wide `crate::Type::fn`
//!    nodes with conservatively-resolved call edges, raw-write
//!    reachability, and the fallible-API set.
//! 4. **Rules** — line rules run over the rendered code/comment views;
//!    symbol rules (`KDD002` indirect, `KDD009`) run over the graph.
//!
//! ## Rules
//!
//! | ID | Name | What it forbids |
//! |---|---|---|
//! | `KDD000` | `waiver` | malformed waiver comments (missing `-- <reason>`, or naming no current rule) |
//! | `KDD001` | `no-panic` | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test code of the I/O-path crates |
//! | `KDD002` | `layering` | raw device/array writes from `sim`, `bench`, `cli`, or `trace` — direct tokens *and* indirect call chains that reach the substrate without passing through the engine |
//! | `KDD009` | `error-discard` | `let _ = …;` and `….ok();` applied to `Result`-returning I/O-path calls (resolved through the call graph) |
//! | `KDD010` | `counter-arithmetic` | narrowing `as` casts and unchecked `+`/`+=` on endurance counters (erase counts, WAF accumulators, stale-row counters) |
//!
//! ## Waivers
//!
//! A violation is silenced by an inline waiver **carrying a written reason**:
//!
//! ```text
//! // kdd-lint: allow(no-panic) -- length checked two lines above
//! ```
//!
//! An equivalent shorthand names the rule by ID with the reason after a
//! colon:
//!
//! ```text
//! // kdd-waiver(KDD001): simulation model, not an I/O path
//! ```
//!
//! A file-scope waiver covers every violation of one rule in the file:
//!
//! ```text
//! // kdd-lint: allow-file(counter-arithmetic) -- counters here are test doubles
//! ```
//!
//! The inline waiver applies to code on the same line, or — when the
//! comment stands alone — to the next line with code on it. A waiver
//! without ` -- <reason>` (or, for the shorthand, without text after the
//! colon) is itself a violation (`KDD000`), and so is one naming a rule
//! that does not exist — a retired one included.
//!
//! Comments and string literals are scrubbed before matching, `#[cfg(test)]`
//! / `#[test]` regions are excluded by brace tracking, and doc-test
//! examples never trigger rules.

// Indexing here is audited: offsets come from length-checked parses or
// module invariants. See DESIGN.md "Static analysis & invariants".
#![allow(clippy::indexing_slicing)]

pub mod callgraph;
pub mod items;
pub mod lex;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use callgraph::{AnalyzedFile, CallGraph, SANCTIONED_CRATES, STD_FALLIBLE_FNS};
use kdd_obs::{json, Json};
use lex::{Lexed, TokKind};

/// Crates whose non-test code must never panic (rule `KDD001`).
pub const PANIC_FREE_CRATES: &[&str] = &["blockdev", "raid", "core", "cache", "delta", "obs"];

/// Crates that must not issue raw device/array writes (rule `KDD002`).
pub const LAYERING_RESTRICTED_CRATES: &[&str] = &["sim", "bench", "cli", "trace"];

/// Crates whose `Result`-returning APIs must never be silently discarded
/// (rule `KDD009` resolves discards against fns defined here).
pub const FALLIBLE_API_CRATES: &[&str] = &["blockdev", "raid", "core", "cache", "obs"];

/// Crates carrying endurance counters whose arithmetic must be checked
/// (rule `KDD010`).
pub const COUNTER_CRATES: &[&str] = &["blockdev", "raid", "core", "cache", "delta", "obs"];

/// Raw mutation entry points of the device/array substrate. Only the cache,
/// core engine, and RAID internals may call these; everything above goes
/// through `KddEngine`/`KddPolicy` so effects are accounted and crash-ordered.
const RAW_WRITE_TOKENS: &[&str] = &[
    ".write_page(",
    ".trim_page(",
    ".write_no_parity_update(",
    ".parity_update_with_data(",
    ".parity_update_rmw(",
    ".resync(",
    ".rebuild(",
];

/// Tokens that panic at runtime (rule `KDD001`).
const PANIC_TOKENS: &[&str] =
    &[".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"];

/// Identifier substrings that mark an endurance counter (rule `KDD010`):
/// erase counts, WAF accumulators, stale-row counters, wear statistics.
const COUNTER_NAME_HINTS: &[&str] =
    &["erase", "waf", "stale_row", "wear", "pages_written", "written_bytes"];

/// Cast targets that narrow an endurance counter (`u64` is the canonical
/// counter width; `usize` narrows on 32-bit targets, `f32` loses precision).
const NARROWING_CAST_TARGETS: &[&str] =
    &["u8", "u16", "u32", "usize", "i8", "i16", "i32", "isize", "f32"];

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `KDD000` — malformed waiver comment.
    Waiver,
    /// `KDD001` — panicking construct on an I/O path.
    NoPanic,
    /// `KDD002` — raw device write (direct or reachable) from a restricted layer.
    Layering,
    /// `KDD009` — silently discarded `Result` from an I/O-path API.
    ErrorDiscard,
    /// `KDD010` — unchecked arithmetic or narrowing cast on an endurance counter.
    CounterArithmetic,
}

/// Every rule, in ID order.
const ALL_RULES: &[Rule] =
    &[Rule::Waiver, Rule::NoPanic, Rule::Layering, Rule::ErrorDiscard, Rule::CounterArithmetic];

impl Rule {
    /// Stable rule ID, e.g. `KDD001`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::Waiver => "KDD000",
            Rule::NoPanic => "KDD001",
            Rule::Layering => "KDD002",
            Rule::ErrorDiscard => "KDD009",
            Rule::CounterArithmetic => "KDD010",
        }
    }

    /// Human name, as accepted inside `kdd-lint: allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Waiver => "waiver",
            Rule::NoPanic => "no-panic",
            Rule::Layering => "layering",
            Rule::ErrorDiscard => "error-discard",
            Rule::CounterArithmetic => "counter-arithmetic",
        }
    }

    /// Parse a rule from its name or its `KDDnnn` code.
    pub fn parse(s: &str) -> Option<Rule> {
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.name() == s || r.code() == s || r.code().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.code(), self.name())
    }
}

/// One finding: a rule violated at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Violated rule.
    pub rule: Rule,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found and why it is forbidden.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {} {}", self.file, self.line, self.rule, self.message)
    }
}

/// A waiver that was honoured (reported for transparency, not a failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverUse {
    /// The waived rule.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line the waiver silenced.
    pub line: usize,
    /// The written reason after `--`.
    pub reason: String,
}

/// Result of linting: violations plus the waivers that were honoured.
#[derive(Debug, Default)]
pub struct Report {
    /// Rule violations (non-empty report fails CI).
    pub violations: Vec<Violation>,
    /// Waivers with written reasons that silenced a would-be violation.
    pub waivers: Vec<WaiverUse>,
}

impl Report {
    /// Render the report as stable machine-readable JSON
    /// (`kdd-lint/v1`): findings and honoured waivers, sorted by
    /// file/line/rule.
    pub fn render_json(&self) -> String {
        let finding = |v: &Violation| {
            json::obj(vec![
                ("rule", Json::Str(v.rule.code().to_string())),
                ("name", Json::Str(v.rule.name().to_string())),
                ("file", Json::Str(v.file.clone())),
                ("line", Json::Num(v.line as f64)),
                ("message", Json::Str(v.message.clone())),
            ])
        };
        let waiver = |w: &WaiverUse| {
            json::obj(vec![
                ("rule", Json::Str(w.rule.code().to_string())),
                ("file", Json::Str(w.file.clone())),
                ("line", Json::Num(w.line as f64)),
                ("reason", Json::Str(w.reason.clone())),
            ])
        };
        json::obj(vec![
            ("schema", Json::Str("kdd-lint/v1".to_string())),
            ("violations", Json::Arr(self.violations.iter().map(finding).collect())),
            ("waivers", Json::Arr(self.waivers.iter().map(waiver).collect())),
        ])
        .render()
    }
}

// ---------------------------------------------------------------------------
// File analysis
// ---------------------------------------------------------------------------

/// One fully-analysed file: token stream, rendered line views, test-region
/// flags. The companion [`AnalyzedFile`] carries the extracted items into
/// the call graph.
struct FileAnalysis {
    krate: String,
    rel: String,
    lexed: Lexed,
    code: Vec<String>,
    comment: Vec<String>,
    in_test: Vec<bool>,
}

/// Lex, render, and extract one file.
fn analyse(krate: &str, rel: &str, src: &str) -> (FileAnalysis, AnalyzedFile) {
    let lexed = lex::lex(src);
    let code = lexed.code_lines();
    let comment = lexed.comment_lines();
    let code_refs: Vec<&str> = code.iter().map(String::as_str).collect();
    let in_test = mark_test_regions(&code_refs);
    let items = items::extract(&lexed);
    let af = AnalyzedFile {
        krate: krate.to_string(),
        rel_path: rel.to_string(),
        items,
        in_test: in_test.clone(),
    };
    let fa = FileAnalysis {
        krate: krate.to_string(),
        rel: rel.to_string(),
        lexed,
        code,
        comment,
        in_test,
    };
    (fa, af)
}

/// Mark lines inside `#[cfg(test)]` / `#[test]` / `#[bench]` regions.
///
/// Brace-tracked on scrubbed text: the region runs from the attribute to the
/// close of the first brace block (or the first `;` for brace-less items).
fn mark_test_regions(scrubbed_lines: &[&str]) -> Vec<bool> {
    let mut in_test = vec![false; scrubbed_lines.len()];
    let mut i = 0;
    while i < scrubbed_lines.len() {
        let t = scrubbed_lines[i].trim();
        let is_test_attr = t.contains("#[cfg(test)]")
            || t.contains("#[test]")
            || t.contains("#[bench]")
            || t.contains("#[should_panic");
        if !is_test_attr {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        while j < scrubbed_lines.len() {
            in_test[j] = true;
            let mut done = false;
            for c in scrubbed_lines[j].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth <= 0 {
                            done = true;
                        }
                    }
                    ';' if !opened && depth == 0 && j > i => done = true,
                    _ => {}
                }
            }
            if done || (opened && depth <= 0) {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    in_test
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

/// A parsed `kdd-lint: allow(rule) -- reason` comment.
#[derive(Debug)]
struct Waiver {
    rule: Option<Rule>,
    reason: Option<String>,
    /// File-scope (`allow-file`) rather than line-scope.
    file_scope: bool,
    /// The raw text inside `allow(...)` (for diagnostics).
    rule_text: String,
}

/// Extract every waiver comment on a raw line.
fn parse_waivers(raw: &str) -> Vec<Waiver> {
    let mut out = Vec::new();
    let mut rest = raw;
    while let Some(pos) = rest.find("kdd-lint:") {
        let after = &rest[pos + "kdd-lint:".len()..];
        let after = after.trim_start();
        let (args_opt, file_scope) = match after.strip_prefix("allow-file(") {
            Some(a) => (Some(a), true),
            None => (after.strip_prefix("allow("), false),
        };
        if let Some(args) = args_opt {
            if let Some(close) = args.find(')') {
                let rule_text = args[..close].trim().to_string();
                let tail = &args[close + 1..];
                let reason = tail.find("--").map(|p| tail[p + 2..].trim().to_string());
                out.push(Waiver {
                    rule: Rule::parse(&rule_text),
                    reason: reason.filter(|r| !r.is_empty()),
                    file_scope,
                    rule_text,
                });
                rest = &args[close + 1..];
                continue;
            }
        }
        out.push(Waiver { rule: None, reason: None, file_scope: false, rule_text: String::new() });
        rest = after;
    }
    // Shorthand form: `kdd-waiver(KDD001): reason`.
    let mut rest = raw;
    while let Some(pos) = rest.find("kdd-waiver(") {
        let args = &rest[pos + "kdd-waiver(".len()..];
        let Some(close) = args.find(')') else {
            out.push(Waiver {
                rule: None,
                reason: None,
                file_scope: false,
                rule_text: String::new(),
            });
            break;
        };
        let rule_text = args[..close].trim().to_string();
        let tail = &args[close + 1..];
        let reason = tail.strip_prefix(':').map(|r| r.trim().to_string()).filter(|r| !r.is_empty());
        out.push(Waiver { rule: Rule::parse(&rule_text), reason, file_scope: false, rule_text });
        rest = tail;
    }
    out
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

/// First match of `pat` in `code` at an identifier boundary (the char before
/// the match must not be part of an identifier when `pat` starts with one).
fn find_ident_token(code: &str, pat: &str) -> Option<usize> {
    let starts_ident = pat.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut from = 0;
    while let Some(rel) = code.get(from..).and_then(|s| s.find(pat)) {
        let pos = from + rel;
        if !starts_ident {
            return Some(pos);
        }
        let boundary_ok = pos == 0
            || code[..pos].chars().next_back().is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if boundary_ok {
            return Some(pos);
        }
        from = pos + pat.len();
    }
    None
}

/// Index of the `;` ending the statement starting at token `from`.
fn statement_end(toks: &[lex::Tok], from: usize) -> usize {
    let mut depth: i64 = 0;
    let mut j = from;
    while j < toks.len() {
        if toks[j].kind == TokKind::Punct {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    toks.len()
}

// ---------------------------------------------------------------------------
// Per-file lint state
// ---------------------------------------------------------------------------

/// Waiver tables and analysis for one file; every emission routes through
/// [`FileLint::emit`] so line- and file-scope waivers apply uniformly.
struct FileLint<'a> {
    fa: &'a FileAnalysis,
    /// Line index → waived rules with reasons.
    waived: Vec<Vec<(Rule, String)>>,
    /// File-scope waivers.
    file_waived: Vec<(Rule, String)>,
}

impl<'a> FileLint<'a> {
    /// Build the waiver tables, reporting malformed waivers into `report`.
    fn new(fa: &'a FileAnalysis, report: &mut Report) -> FileLint<'a> {
        let n = fa.code.len();
        let mut waived: Vec<Vec<(Rule, String)>> = vec![Vec::new(); n];
        let mut file_waived: Vec<(Rule, String)> = Vec::new();
        for i in 0..n {
            for w in parse_waivers(&fa.comment[i]) {
                let Some(rule) = w.rule else {
                    report.violations.push(Violation {
                        rule: Rule::Waiver,
                        file: fa.rel.clone(),
                        line: i + 1,
                        message: format!(
                            "malformed waiver: `allow({})` names no known rule \
                             (use a rule name like `no-panic` or an ID like `KDD001`)",
                            w.rule_text
                        ),
                    });
                    continue;
                };
                let Some(reason) = w.reason else {
                    report.violations.push(Violation {
                        rule: Rule::Waiver,
                        file: fa.rel.clone(),
                        line: i + 1,
                        message: format!(
                            "waiver for {} carries no reason: write \
                             `kdd-lint: allow({}) -- <why this is sound>`",
                            rule.code(),
                            rule.name()
                        ),
                    });
                    continue;
                };
                if w.file_scope {
                    file_waived.push((rule, reason));
                    continue;
                }
                // Same line if it has code, else the next code-bearing line.
                let mut target = i;
                if fa.code[i].trim().is_empty() {
                    for (j, l) in fa.code.iter().enumerate().skip(i + 1) {
                        if !l.trim().is_empty() {
                            target = j;
                            break;
                        }
                    }
                }
                if let Some(slot) = waived.get_mut(target) {
                    slot.push((rule, reason));
                }
            }
        }
        FileLint { fa, waived, file_waived }
    }

    /// Record a violation at 0-based `line_idx`, honouring waivers.
    fn emit(&self, report: &mut Report, rule: Rule, line_idx: usize, message: String) {
        if let Some((_, reason)) =
            self.waived.get(line_idx).and_then(|ws| ws.iter().find(|(r, _)| *r == rule))
        {
            report.waivers.push(WaiverUse {
                rule,
                file: self.fa.rel.clone(),
                line: line_idx + 1,
                reason: reason.clone(),
            });
            return;
        }
        if let Some((_, reason)) = self.file_waived.iter().find(|(r, _)| *r == rule) {
            // One waiver-use entry per (file, rule) keeps the listing short.
            let already = report.waivers.iter().any(|w| w.rule == rule && w.file == self.fa.rel);
            if !already {
                report.waivers.push(WaiverUse {
                    rule,
                    file: self.fa.rel.clone(),
                    line: line_idx + 1,
                    reason: reason.clone(),
                });
            }
            return;
        }
        report.violations.push(Violation {
            rule,
            file: self.fa.rel.clone(),
            line: line_idx + 1,
            message,
        });
    }
}

// ---------------------------------------------------------------------------
// Rule passes
// ---------------------------------------------------------------------------

/// Line rules: `KDD001` and the direct half of `KDD002` over the rendered
/// code view.
fn run_line_rules(fl: &FileLint<'_>, report: &mut Report) {
    let fa = fl.fa;
    let crate_name = fa.krate.as_str();
    let panic_free = PANIC_FREE_CRATES.contains(&crate_name);
    let layering_restricted = LAYERING_RESTRICTED_CRATES.contains(&crate_name);

    for (i, code) in fa.code.iter().enumerate() {
        if fa.in_test[i] || code.trim().is_empty() {
            continue;
        }
        if panic_free {
            for tok in PANIC_TOKENS {
                if find_ident_token(code, tok).is_some() {
                    fl.emit(
                        report,
                        Rule::NoPanic,
                        i,
                        format!(
                            "`{}` in non-test code of panic-free crate `{}`: \
                             plumb a typed error instead",
                            tok.trim_matches(|c| c == '.' || c == '('),
                            crate_name
                        ),
                    );
                }
            }
        }
        if layering_restricted {
            for tok in RAW_WRITE_TOKENS {
                if code.contains(tok) {
                    fl.emit(
                        report,
                        Rule::Layering,
                        i,
                        format!(
                            "raw device/array write `{}` from layer `{}`: \
                             only cache/core/raid internals may mutate the substrate \
                             (go through `KddEngine`/`KddPolicy`)",
                            tok.trim_matches(|c| c == '.' || c == '('),
                            crate_name
                        ),
                    );
                }
            }
        }
    }
}

/// Token rule: `KDD010` (counter arithmetic) over the real token stream.
fn run_token_rules(fl: &FileLint<'_>, report: &mut Report) {
    let fa = fl.fa;
    let toks = &fa.lexed.toks;
    if !COUNTER_CRATES.contains(&fa.krate.as_str()) {
        return;
    }
    // Per-line "has checked/saturating arithmetic" marker.
    let mut line_checked: BTreeSet<usize> = BTreeSet::new();
    for t in toks {
        if t.kind == TokKind::Ident
            && (t.text.starts_with("checked_") || t.text.starts_with("saturating_"))
        {
            line_checked.insert(t.line);
        }
    }
    for (k, t) in toks.iter().enumerate() {
        let line_idx = t.line.saturating_sub(1);
        if t.kind != TokKind::Ident || fa.in_test.get(line_idx).copied().unwrap_or(false) {
            continue;
        }
        let lower = t.text.to_ascii_lowercase();
        if !COUNTER_NAME_HINTS.iter().any(|h| lower.contains(h)) {
            continue;
        }
        // Narrowing cast: `counter [()…] as <narrow>`.
        let mut j = k + 1;
        while toks
            .get(j)
            .is_some_and(|x| x.kind == TokKind::Punct && (x.text == ")" || x.text == "("))
        {
            j += 1;
        }
        if toks.get(j).is_some_and(|x| x.kind == TokKind::Ident && x.text == "as") {
            if let Some(ty) =
                toks.get(j + 1).filter(|x| NARROWING_CAST_TARGETS.contains(&x.text.as_str()))
            {
                fl.emit(
                    report,
                    Rule::CounterArithmetic,
                    line_idx,
                    format!(
                        "narrowing cast `as {}` on endurance counter `{}`: \
                         compressed-wear campaigns overflow narrow types — keep \
                         counters in `u64` (or waive with a measured bound)",
                        ty.text, t.text
                    ),
                );
            }
        }
        if line_checked.contains(&t.line) {
            continue;
        }
        // Unchecked accumulation *into* the counter: `counter += …` or
        // `counter = counter + …`. A counter merely read inside a sum
        // (`total + c`, `rate * c`) cannot overflow the counter itself.
        let compound = toks.get(k + 1).is_some_and(|x| x.kind == TokKind::Punct && x.text == "+=");
        let self_assign =
            toks.get(k + 1).is_some_and(|x| x.kind == TokKind::Punct && x.text == "+") && {
                // Walk back over `recv.` qualifiers to the `=`, then
                // require the assignment target to be the same counter.
                let mut p = k;
                while p >= 2
                    && toks[p - 1].kind == TokKind::Punct
                    && toks[p - 1].text == "."
                    && toks[p - 2].kind == TokKind::Ident
                {
                    p -= 2;
                }
                p >= 2
                    && toks[p - 1].kind == TokKind::Punct
                    && toks[p - 1].text == "="
                    && toks[p - 2].kind == TokKind::Ident
                    && toks[p - 2].text == t.text
            };
        if compound || self_assign {
            fl.emit(
                report,
                Rule::CounterArithmetic,
                line_idx,
                format!(
                    "unchecked `+` accumulation on endurance counter `{}`: years \
                     of compressed wear overflow silently in release builds — use \
                     `checked_add`/`saturating_add` or waive with a reason",
                    t.text
                ),
            );
        }
    }
}

/// Symbol rules over the call graph: `KDD009` (error discard) and the
/// indirect half of `KDD002` (layering by reachability).
fn run_graph_rules(
    fl: &FileLint<'_>,
    graph: &CallGraph,
    reach: &[Option<String>],
    report: &mut Report,
) {
    let fa = fl.fa;
    let toks = &fa.lexed.toks;
    let in_test = |line: usize| fa.in_test.get(line.saturating_sub(1)).copied().unwrap_or(false);

    // Enclosing graph node for a source line, by fn span.
    let node_for_line = |line: usize| {
        graph
            .nodes_in_file(&fa.rel)
            .find(|&i| graph.nodes[i].line <= line && line <= graph.nodes[i].end_line)
    };

    // A call name inside a discard statement: is it a fallible I/O API?
    let fallible_api = |name: &str, line: usize| -> Option<String> {
        if STD_FALLIBLE_FNS.contains(&name) {
            return Some(format!("std::fs::{name}"));
        }
        let node = node_for_line(line)?;
        let site = graph.nodes[node].calls.iter().find(|c| c.line == line && c.name == name)?;
        graph.resolves_fallible(node, site, FALLIBLE_API_CRATES)
    };

    // `let _ = …;` statements.
    for k in 0..toks.len() {
        let is_ident = |i: usize, s: &str| {
            toks.get(i).is_some_and(|x| x.kind == TokKind::Ident && x.text == s)
        };
        let is_punct = |i: usize, s: &str| {
            toks.get(i).is_some_and(|x| x.kind == TokKind::Punct && x.text == s)
        };
        if is_ident(k, "let") && is_ident(k + 1, "_") && is_punct(k + 2, "=") {
            let stmt_line = toks[k].line;
            if in_test(stmt_line) {
                continue;
            }
            let end = statement_end(toks, k + 3);
            let mut j = k + 3;
            while j < end {
                let t = &toks[j];
                if t.kind == TokKind::Ident
                    && is_punct(j + 1, "(")
                    && !is_ident(j.wrapping_sub(1), "fn")
                {
                    if let Some(api) = fallible_api(&t.text, t.line) {
                        fl.emit(
                            report,
                            Rule::ErrorDiscard,
                            stmt_line - 1,
                            format!(
                                "`let _ =` discards the `Result` of `{api}` on an I/O \
                                 path: propagate with `?`, handle it, or log the error \
                                 before dropping it"
                            ),
                        );
                        break;
                    }
                }
                j += 1;
            }
        }
        // `….ok();` — the Result is thrown away wholesale.
        if is_punct(k, ".")
            && is_ident(k + 1, "ok")
            && is_punct(k + 2, "(")
            && is_punct(k + 3, ")")
            && is_punct(k + 4, ";")
        {
            let line = toks[k + 1].line;
            if in_test(line) {
                continue;
            }
            // Walk back over the receiver call's `(...)`.
            if k == 0 || !is_punct(k - 1, ")") {
                continue;
            }
            let mut depth: i64 = 0;
            let mut p = k - 1;
            loop {
                if toks[p].kind == TokKind::Punct {
                    match toks[p].text.as_str() {
                        ")" => depth += 1,
                        "(" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                if p == 0 {
                    break;
                }
                p -= 1;
            }
            if p == 0 {
                continue;
            }
            let name_tok = &toks[p - 1];
            if name_tok.kind != TokKind::Ident {
                continue;
            }
            if let Some(api) = fallible_api(&name_tok.text, name_tok.line) {
                fl.emit(
                    report,
                    Rule::ErrorDiscard,
                    line - 1,
                    format!(
                        "`.ok()` silently swallows the `Result` of `{api}` on an I/O \
                         path: handle the error or log it on the failure path"
                    ),
                );
            }
        }
    }

    // KDD002 (indirect): restricted layers must not *reach* a raw substrate
    // write through any resolved call chain that bypasses the engine.
    if LAYERING_RESTRICTED_CRATES.contains(&fa.krate.as_str()) {
        for i in graph.nodes_in_file(&fa.rel) {
            if graph.nodes[i].in_test {
                continue;
            }
            for site in &graph.nodes[i].calls {
                if in_test(site.line) {
                    continue;
                }
                for j in graph.resolve(i, site) {
                    if SANCTIONED_CRATES.contains(&graph.nodes[j].krate.as_str()) {
                        continue;
                    }
                    if let Some(chain) = &reach[j] {
                        fl.emit(
                            report,
                            Rule::Layering,
                            site.line - 1,
                            format!(
                                "call into `{}` from layer `{}` reaches a raw \
                                 device/array write without passing through the \
                                 engine: {chain}",
                                graph.nodes[j].qual_name(),
                                fa.krate
                            ),
                        );
                        break;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Lint one source file given its crate name and workspace-relative path.
///
/// Runs the full pipeline — lexer, item extraction, a single-file call
/// graph — so fixtures exercise exactly the code the workspace walk runs.
/// Cross-file resolution (e.g. `KddEngine::flush` from `cli`) only
/// happens under [`lint_workspace`].
pub fn lint_source(crate_name: &str, rel_path: &str, src: &str) -> Report {
    let (fa, af) = analyse(crate_name, rel_path, src);
    let graph = CallGraph::build(std::slice::from_ref(&af));
    let reach = graph.raw_reachability();
    let mut report = Report::default();
    let fl = FileLint::new(&fa, &mut report);
    run_line_rules(&fl, &mut report);
    run_token_rules(&fl, &mut report);
    run_graph_rules(&fl, &graph, &reach, &mut report);
    sort_dedup(&mut report);
    report
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Recursively collect `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every crate's `src/` tree under `<root>/crates/`.
///
/// `tests/`, `benches/`, `examples/`, and `vendor/` are out of scope: rules
/// govern the shipped I/O paths, and test code is free to `unwrap`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut fas: Vec<FileAnalysis> = Vec::new();
    let mut afs: Vec<AnalyzedFile> = Vec::new();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        if crate_name == "xtask" {
            // The linter's own source is full of rule tokens and waiver
            // syntax *as data*; its behaviour is pinned by the fixture
            // corpus under crates/xtask/tests/ instead of self-linting.
            continue;
        }
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        files.sort();
        for file in files {
            let content = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().replace('\\', "/");
            let (fa, af) = analyse(&crate_name, &rel, &content);
            fas.push(fa);
            afs.push(af);
        }
    }
    // Workspace graph over every analysed file.
    let graph = CallGraph::build(&afs);
    let reach = graph.raw_reachability();
    for fa in &fas {
        let fl = FileLint::new(fa, &mut report);
        run_line_rules(&fl, &mut report);
        run_token_rules(&fl, &mut report);
        run_graph_rules(&fl, &graph, &reach, &mut report);
    }
    sort_dedup(&mut report);
    Ok(report)
}

/// Sort violations by file/line/rule and drop duplicate findings (the
/// direct and reachability halves of `KDD002` can land on one line).
fn sort_dedup(report: &mut Report) {
    report
        .violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    report.violations.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
}
