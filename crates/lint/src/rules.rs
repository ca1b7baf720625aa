//! The rule engine: token-stream determinism/robustness rules with
//! per-crate scopes, same-or-previous-line suppressions, and a stale-
//! suppression audit.
//!
//! Rule catalog (ids as they appear in findings and the JSON report):
//!
//! * `clock` — wall-clock *reads* (`Instant::now`, `SystemTime::now`,
//!   `.elapsed()`) outside `crates/telemetry` and `crates/bench`.
//!   `std::time::Duration` arithmetic is permitted everywhere — only
//!   reading a clock is a hazard, carrying a duration is not. The
//!   exemption re-applies to the telemetry modules that build event-
//!   stream and trace payloads (`events.rs`, `trace.rs`), which must
//!   stay deterministic.
//! * `hash` — a `HashMap`/`HashSet` type or constructor in a crate
//!   that feeds serialized or merged output (core, wire, telemetry,
//!   sandbox, netsim, protocols, intel, botgen). `RandomState` seeds
//!   per process, so iteration order varies *between runs* even with a
//!   fixed simulation seed. Lookup-only maps are fine when justified
//!   with `lint: hash-ok`.
//! * `hash-iter` — an *iteration* over a binding the current file
//!   declares with a hash-collection type (`.iter()`, `.keys()`,
//!   `for _ in &map`, ...). This is the dangerous half the old grep
//!   could not distinguish from lookup; justify only if the result is
//!   sorted (or order-insensitive) before anything observable.
//! * `panic` — panic sites in core/wire production code: `panic!`,
//!   `unreachable!`, `todo!`, `unimplemented!`, `.unwrap()`,
//!   `.expect(`, `.expect_err(`. One crashing sample must degrade into
//!   D-Health, not abort a study. Matched on the token stream, so a
//!   method chain broken across physical lines still trips the rule.
//! * `index` — computed slice indexing in wire decoders
//!   (`data[pos]`, `&data[off..len]` where the bracket contains an
//!   identifier). Fixed literal offsets behind an up-front length
//!   check (`data[4]`) are the decoder idiom and stay legal; computed
//!   offsets are where truncated input panics live.
//! * `seed` — seed-domain discipline: RNG construction outside
//!   `crates/prng` must flow from a caller-provided seed (never a bare
//!   literal), entropy sources (`from_entropy`, `thread_rng`, `OsRng`,
//!   `getrandom`, `RandomState`) are banned outright, and the
//!   `0x5eed_…`/`0xc4a0_…` sub-seed domain families may only appear as
//!   the initializer of a `const DOMAIN_*: u64` declaration — declared
//!   exactly once workspace-wide (checked cross-file).
//! * `stale-suppression` — a `lint: *-ok` marker that no longer
//!   suppresses anything on its own or the following line. Stale
//!   justifications are themselves errors so they cannot rot.
//!
//! Suppression grammar: a regular (non-doc) comment containing
//! `lint: <rule>-ok` on the same line as the violation or the line
//! directly above. Doc comments are inert so documentation may mention
//! the grammar without creating suppressions.
//!
//! Test modules (everything from the first `#[cfg(test)]` to EOF — the
//! workspace convention keeps them at the bottom of each file) are
//! exempt from every rule except the entropy half of `seed`: a test
//! *should* panic on a broken invariant, but nothing may ever draw
//! OS randomness.

use crate::lexer::{int_value, lex, Tok, TokKind};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule id (see module docs).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A `const DOMAIN_*: u64` seed-domain declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainDecl {
    /// Constant name (starts with `DOMAIN_`).
    pub name: String,
    /// Constant value.
    pub value: u64,
    /// Declaring file.
    pub file: String,
    /// 1-indexed line of the declaration.
    pub line: usize,
}

/// Per-file lint result.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Findings, in source order.
    pub findings: Vec<Finding>,
    /// Seed-domain constants declared in this file.
    pub domains: Vec<DomainDecl>,
    /// Suppression markers found.
    pub markers: usize,
    /// Suppression markers that silenced at least one violation.
    pub markers_used: usize,
}

/// Every rule id, for the report's catalog.
pub const RULES: &[&str] = &[
    "clock",
    "hash",
    "hash-iter",
    "panic",
    "index",
    "seed",
    "stale-suppression",
];

const CLOCK_EXEMPT_PREFIXES: &[&str] = &["crates/telemetry/", "crates/bench/"];
/// Files inside a clock-exempt crate where the rule applies anyway:
/// event-stream and trace payloads must be wall-clock-free or streaming
/// would reintroduce the schedule-dependence telemetry is proven not to
/// have. Only caller-supplied stopwatch readings and sequence numbers
/// may appear there.
const CLOCK_REAPPLIED_FILES: &[&str] = &[
    "crates/telemetry/src/events.rs",
    "crates/telemetry/src/trace.rs",
];
/// Crates whose in-memory state feeds serialized or merged output —
/// datasets, reports, event streams, pcaps, world state.
const HASH_SCOPED_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/wire/src/",
    "crates/telemetry/src/",
    "crates/sandbox/src/",
    "crates/netsim/src/",
    "crates/protocols/src/",
    "crates/intel/src/",
    "crates/botgen/src/",
];
const PANIC_SCOPED_PREFIXES: &[&str] = &["crates/core/src/", "crates/wire/src/"];
const INDEX_SCOPED_PREFIXES: &[&str] = &["crates/wire/src/"];
/// The seed rule covers every crate's production sources except the
/// generator itself (which defines construction) and the offline bench
/// harness (whose seeds never feed the simulation's datasets).
const SEED_EXEMPT_PREFIXES: &[&str] = &["crates/prng/", "crates/bench/"];

const ITER_METHODS: &[&str] = &[
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
const ENTROPY_IDENTS: &[&str] = &[
    "from_entropy",
    "thread_rng",
    "OsRng",
    "getrandom",
    "RandomState",
];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "expect_err"];

/// The two sub-seed domain literal families (`sub_seed` xor-domains):
/// pipeline/prober streams and chaos fault streams.
fn is_domain_literal(v: u64) -> bool {
    matches!(v >> 48, 0x5eed | 0xc4a0)
}

struct Marker {
    rule: String,
    line: usize,
    used: bool,
}

struct Ctx<'a> {
    path: &'a str,
    toks: &'a [Tok],
    markers: Vec<Marker>,
    findings: Vec<Finding>,
    /// First line of the `#[cfg(test)]` trailer, if any.
    test_line: Option<usize>,
}

impl Ctx<'_> {
    fn in_tests(&self, line: usize) -> bool {
        self.test_line.is_some_and(|t| line >= t)
    }

    /// Emit a finding unless a matching marker on the same or previous
    /// line suppresses it (marking the marker used either way).
    fn emit(&mut self, rule: &'static str, line: usize, message: String) {
        let mut suppressed = false;
        for m in &mut self.markers {
            if m.rule == rule && (m.line == line || m.line + 1 == line) {
                m.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            self.findings.push(Finding {
                file: self.path.to_string(),
                line,
                rule,
                message,
            });
        }
    }

    fn ident(&self, i: usize, text: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
    }

    fn ident_in(&self, i: usize, set: &[&str]) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && set.contains(&t.text.as_str()))
    }

    fn punct(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| {
            t.kind == TokKind::Punct && t.text.len() == 1 && t.text.as_bytes()[0] as char == c
        })
    }
}

/// Lint one file's content. `path` is workspace-relative with forward
/// slashes; it selects which rules apply.
pub fn lint_file(path: &str, src: &str) -> FileLint {
    let lexed = lex(src);
    let markers = collect_markers(&lexed.comments);
    let test_line = find_cfg_test(&lexed.toks);
    let mut ctx = Ctx {
        path,
        toks: &lexed.toks,
        markers,
        findings: Vec::new(),
        test_line,
    };

    let clock_applies = CLOCK_REAPPLIED_FILES.contains(&path)
        || !CLOCK_EXEMPT_PREFIXES.iter().any(|p| path.starts_with(p));
    let hash_applies = HASH_SCOPED_PREFIXES.iter().any(|p| path.starts_with(p));
    let panic_applies = PANIC_SCOPED_PREFIXES.iter().any(|p| path.starts_with(p));
    let index_applies = INDEX_SCOPED_PREFIXES.iter().any(|p| path.starts_with(p));
    let seed_applies = path.starts_with("crates/")
        && path.contains("/src/")
        && !SEED_EXEMPT_PREFIXES.iter().any(|p| path.starts_with(p));

    if clock_applies {
        clock_rule(&mut ctx);
    }
    if hash_applies {
        hash_rules(&mut ctx);
    }
    if panic_applies {
        panic_rule(&mut ctx);
    }
    if index_applies {
        index_rule(&mut ctx);
    }
    let domains = if seed_applies {
        seed_rule(&mut ctx)
    } else {
        Vec::new()
    };

    // Stale-suppression audit: every marker must still be load-bearing.
    let mut findings = ctx.findings;
    let markers_total = ctx.markers.len();
    let mut markers_used = 0;
    for m in &ctx.markers {
        if m.used {
            markers_used += 1;
        } else {
            findings.push(Finding {
                file: path.to_string(),
                line: m.line,
                rule: "stale-suppression",
                message: format!(
                    "`lint: {}-ok` suppresses nothing on this or the next line; \
                     remove it (justifications must not outlive their hazard)",
                    m.rule
                ),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FileLint {
        findings,
        domains,
        markers: markers_total,
        markers_used,
    }
}

/// Parse `lint: <rule>-ok` markers out of regular (non-doc) comments.
fn collect_markers(comments: &[crate::lexer::Comment]) -> Vec<Marker> {
    let mut out = Vec::new();
    for c in comments {
        if c.doc {
            continue;
        }
        let mut rest = c.text.as_str();
        while let Some(at) = rest.find("lint: ") {
            rest = &rest[at + "lint: ".len()..];
            let word: String = rest
                .chars()
                .take_while(|ch| ch.is_ascii_lowercase() || *ch == '-')
                .collect();
            if let Some(rule) = word.strip_suffix("-ok") {
                if !rule.is_empty() {
                    out.push(Marker {
                        rule: rule.to_string(),
                        line: c.line_end,
                        used: false,
                    });
                }
            }
        }
    }
    out
}

/// Line of the first `#[cfg(test)]` attribute, if any. The workspace
/// convention keeps unit-test modules at the bottom of each file, so
/// everything from here to EOF is test code.
fn find_cfg_test(toks: &[Tok]) -> Option<usize> {
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Punct
            && toks[i].text == "#"
            && toks.get(i + 1).is_some_and(|t| t.text == "[")
            && toks.get(i + 2).is_some_and(|t| t.text == "cfg")
            && toks.get(i + 3).is_some_and(|t| t.text == "(")
            && toks.get(i + 4).is_some_and(|t| t.text == "test")
        {
            return Some(toks[i].line);
        }
    }
    None
}

fn clock_rule(ctx: &mut Ctx<'_>) {
    for i in 0..ctx.toks.len() {
        let line = ctx.toks[i].line;
        if ctx.in_tests(line) {
            continue;
        }
        if ctx.ident_in(i, &["Instant", "SystemTime"])
            && ctx.punct(i + 1, ':')
            && ctx.punct(i + 2, ':')
            && ctx.ident(i + 3, "now")
        {
            ctx.emit(
                "clock",
                line,
                format!(
                    "wall-clock read `{}::now` outside crates/telemetry; \
                     use Telemetry::stopwatch (Duration values are fine, clock reads are not)",
                    ctx.toks[i].text
                ),
            );
        }
        if ctx.punct(i, '.') && ctx.ident(i + 1, "elapsed") && ctx.punct(i + 2, '(') {
            ctx.emit(
                "clock",
                ctx.toks[i + 1].line,
                "wall-clock read `.elapsed()` outside crates/telemetry; \
                 use Telemetry::stopwatch"
                    .to_string(),
            );
        }
    }
}

fn hash_rules(ctx: &mut Ctx<'_>) {
    // Pass 1: type/constructor mentions, and the names they bind.
    let mut hash_names: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut in_use = false;
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind == TokKind::Ident && t.text == "use" {
            in_use = true;
        } else if in_use && t.kind == TokKind::Punct && t.text == ";" {
            in_use = false;
        }
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        if let Some(name) = bound_name(ctx.toks, i) {
            // Collected even when suppressed or in a use item: an
            // annotated lookup-only declaration still arms the
            // iteration rule for its binding.
            hash_names.insert(name);
        }
        if in_use || ctx.in_tests(t.line) {
            // Importing a type is not a hazard; iterating it is.
            continue;
        }
        let what = t.text.clone();
        ctx.emit(
            "hash",
            t.line,
            format!(
                "`{what}` in a crate that feeds serialized output: iteration order \
                 varies per process; use a BTree collection, or justify lookup-only \
                 use with `lint: hash-ok`"
            ),
        );
    }

    // Pass 2: iteration over bindings declared hash-typed in this file.
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind != TokKind::Ident || ctx.in_tests(t.line) {
            continue;
        }
        // `name.iter()` / `self.name.keys()` / `name.drain(..)` ...
        if hash_names.contains(&t.text)
            && ctx.punct(i + 1, '.')
            && ctx.ident_in(i + 2, ITER_METHODS)
            && ctx.punct(i + 3, '(')
        {
            let method = ctx.toks[i + 2].text.clone();
            ctx.emit(
                "hash-iter",
                ctx.toks[i + 2].line,
                format!(
                    "iteration `.{method}()` over hash-ordered `{}`; order varies per \
                     process — sort before anything observable, use a BTree collection, \
                     or justify with `lint: hash-iter-ok`",
                    t.text
                ),
            );
        }
        // `for x in &name {` / `for (k, v) in &self.name {`
        if t.text == "in" {
            let mut j = i + 1;
            while ctx.punct(j, '&') || ctx.ident(j, "mut") {
                j += 1;
            }
            if ctx.ident(j, "self") && ctx.punct(j + 1, '.') {
                j += 2;
            }
            if ctx
                .toks
                .get(j)
                .is_some_and(|n| n.kind == TokKind::Ident && hash_names.contains(&n.text))
                && ctx.punct(j + 1, '{')
            {
                let name = ctx.toks[j].text.clone();
                ctx.emit(
                    "hash-iter",
                    ctx.toks[j].line,
                    format!(
                        "for-loop over hash-ordered `{name}`; order varies per process — \
                         sort before anything observable, use a BTree collection, or \
                         justify with `lint: hash-iter-ok`"
                    ),
                );
            }
        }
    }
}

/// If the `HashMap`/`HashSet` token at `i` is the type of a field or
/// binding (`name: HashMap<..>`, `let name = HashMap::new()`), return
/// the bound name.
fn bound_name(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i;
    // Walk back over a `std::collections::` path prefix.
    while j >= 2 && toks[j - 1].text == ":" && toks[j - 2].text == ":" {
        j -= 2;
        if j >= 1 && toks[j - 1].kind == TokKind::Ident {
            j -= 1;
        }
    }
    if j == 0 {
        return None;
    }
    let prev = &toks[j - 1];
    // `name: HashMap<...>` (field or annotated let) — a single colon.
    if prev.text == ":" && j >= 2 && toks[j - 2].kind == TokKind::Ident {
        return Some(toks[j - 2].text.clone());
    }
    // `name = HashMap::new()`.
    if prev.text == "=" && j >= 2 && toks[j - 2].kind == TokKind::Ident {
        return Some(toks[j - 2].text.clone());
    }
    None
}

fn panic_rule(ctx: &mut Ctx<'_>) {
    for i in 0..ctx.toks.len() {
        let line = ctx.toks[i].line;
        if ctx.in_tests(line) {
            continue;
        }
        if ctx.ident_in(i, PANIC_MACROS) && ctx.punct(i + 1, '!') {
            ctx.emit(
                "panic",
                line,
                format!(
                    "`{}!` in production code; degrade into D-Health via typed errors / \
                     quarantine, or justify with `lint: panic-ok`",
                    ctx.toks[i].text
                ),
            );
        }
        if ctx.punct(i, '.') && ctx.ident_in(i + 1, PANIC_METHODS) && ctx.punct(i + 2, '(') {
            ctx.emit(
                "panic",
                ctx.toks[i + 1].line,
                format!(
                    "`.{}(...)` in production code; degrade into D-Health via typed \
                     errors / quarantine, or justify with `lint: panic-ok`",
                    ctx.toks[i + 1].text
                ),
            );
        }
    }
}

fn index_rule(ctx: &mut Ctx<'_>) {
    for i in 0..ctx.toks.len() {
        if !ctx.punct(i, '[') || i == 0 {
            continue;
        }
        let line = ctx.toks[i].line;
        if ctx.in_tests(line) {
            continue;
        }
        // Index position: `expr[...]` — the bracket follows a value,
        // not a type/attribute/macro context. Keywords lex as idents but
        // cannot be receivers: `let [a, b] =` is a slice pattern and
        // `pub [u8; 6]` a tuple-struct field, not indexing.
        const NON_RECEIVER_KEYWORDS: &[&str] = &[
            "let", "mut", "ref", "pub", "in", "return", "match", "if", "else", "while", "for",
            "loop", "move", "as", "dyn", "impl", "where", "break", "const", "static", "use", "fn",
            "struct", "enum", "trait", "type", "mod", "unsafe", "box", "yield",
        ];
        let prev = &ctx.toks[i - 1];
        let is_receiver = (matches!(prev.kind, TokKind::Ident | TokKind::Int)
            && !NON_RECEIVER_KEYWORDS.contains(&prev.text.as_str()))
            || prev.text == ")"
            || prev.text == "]";
        if !is_receiver {
            continue;
        }
        // Find the matching `]` and look for identifiers inside:
        // computed indexes/ranges can exceed a truncated buffer.
        let mut depth = 1usize;
        let mut j = i + 1;
        let mut has_ident = false;
        while j < ctx.toks.len() && depth > 0 {
            match ctx.toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {
                    if ctx.toks[j].kind == TokKind::Ident {
                        has_ident = true;
                    }
                }
            }
            j += 1;
        }
        if has_ident {
            ctx.emit(
                "index",
                line,
                "computed slice index in a wire decoder panics on truncated input; \
                 use get()/checked splitting, or justify the bound with `lint: index-ok`"
                    .to_string(),
            );
        }
    }
}

/// The seed-domain rule; returns this file's `const DOMAIN_*`
/// declarations for the workspace-level uniqueness check.
fn seed_rule(ctx: &mut Ctx<'_>) -> Vec<DomainDecl> {
    let mut domains = Vec::new();
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        let line = t.line;

        // Entropy sources: banned everywhere, tests included — OS
        // randomness breaks reproducibility wherever it runs.
        if ctx.ident_in(i, ENTROPY_IDENTS) {
            ctx.emit(
                "seed",
                line,
                format!(
                    "entropy source `{}`; all randomness must derive from the study \
                     seed via malnet_prng::sub_seed",
                    t.text
                ),
            );
        }
        if ctx.in_tests(line) {
            continue;
        }

        // Literal-seeded RNG construction: `seed_from_u64(<no idents>)`
        // collides across call sites; seeds must flow from a SeedStream
        // derivation (so the argument names at least one value).
        if ctx.ident(i, "seed_from_u64") && ctx.punct(i + 1, '(') {
            let mut depth = 1usize;
            let mut j = i + 2;
            let mut has_ident = false;
            while j < ctx.toks.len() && depth > 0 {
                match ctx.toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {
                        if ctx.toks[j].kind == TokKind::Ident {
                            has_ident = true;
                        }
                    }
                }
                j += 1;
            }
            if !has_ident {
                ctx.emit(
                    "seed",
                    line,
                    "literal-seeded RNG: the seed must flow from a SeedStream domain \
                     derivation (sub_seed / a caller-provided seed), never a bare literal"
                        .to_string(),
                );
            }
        }

        // `const DOMAIN_*: u64 = <lit>;` declarations.
        if ctx.ident(i, "const")
            && ctx
                .toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && n.text.starts_with("DOMAIN_"))
            && ctx.punct(i + 2, ':')
            && ctx.ident(i + 3, "u64")
            && ctx.punct(i + 4, '=')
            && ctx.toks.get(i + 5).is_some_and(|v| v.kind == TokKind::Int)
        {
            if let Some(value) = int_value(&ctx.toks[i + 5].text) {
                domains.push(DomainDecl {
                    name: ctx.toks[i + 1].text.clone(),
                    value,
                    file: ctx.path.to_string(),
                    line,
                });
            }
        }

        // Domain-family literals (`0x5eed_…`, `0xc4a0_…`) outside a
        // `const DOMAIN_*` initializer: inline domains cannot be
        // checked for workspace-wide uniqueness, so they are banned.
        if t.kind == TokKind::Int {
            if let Some(v) = int_value(&t.text) {
                if is_domain_literal(v) {
                    let is_decl_init = i >= 5
                        && ctx.ident(i - 5, "const")
                        && ctx
                            .toks
                            .get(i - 4)
                            .is_some_and(|n| n.text.starts_with("DOMAIN_"))
                        && ctx.punct(i - 3, ':')
                        && ctx.ident(i - 2, "u64")
                        && ctx.punct(i - 1, '=');
                    if !is_decl_init {
                        ctx.emit(
                            "seed",
                            line,
                            format!(
                                "inline seed-domain literal {:#x}; declare it once as \
                                 `const DOMAIN_*: u64` so uniqueness is checkable",
                                v
                            ),
                        );
                    }
                }
            }
        }
    }
    domains
}

/// Cross-file analysis: every seed-domain constant must be declared
/// exactly once workspace-wide — by name *and* by value. Two domains
/// sharing a value silently correlate their random streams; two
/// declarations of one name make the derivation ambiguous.
pub fn check_domain_uniqueness(domains: &[DomainDecl]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut sorted: Vec<&DomainDecl> = domains.iter().collect();
    sorted.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for (i, d) in sorted.iter().enumerate() {
        for earlier in &sorted[..i] {
            if earlier.name == d.name {
                findings.push(Finding {
                    file: d.file.clone(),
                    line: d.line,
                    rule: "seed",
                    message: format!(
                        "seed domain `{}` already declared at {}:{}; every domain is \
                         declared exactly once workspace-wide",
                        d.name, earlier.file, earlier.line
                    ),
                });
                break;
            }
            if earlier.value == d.value {
                findings.push(Finding {
                    file: d.file.clone(),
                    line: d.line,
                    rule: "seed",
                    message: format!(
                        "seed domain `{}` reuses value {:#x} of `{}` ({}:{}); shared \
                         values correlate supposedly-independent random streams",
                        d.name, d.value, earlier.name, earlier.file, earlier.line
                    ),
                });
                break;
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<(&'static str, usize)> {
        lint_file(path, src)
            .findings
            .iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn clock_reads_flagged_duration_arithmetic_permitted() {
        // Satellite fix: the old grep flagged `std::time` anywhere,
        // including harmless Duration imports. The token rule flags
        // only reads.
        let src = "use std::time::Duration;\n\
                   fn f(d: Duration) -> Duration { d + Duration::from_secs(1) }\n\
                   fn g() { let t = std::time::Instant::now(); }\n";
        let v = rules_of("crates/core/src/pipeline.rs", src);
        assert_eq!(v, vec![("clock", 3)]);
    }

    #[test]
    fn elapsed_call_is_a_clock_read() {
        let src = "fn f(t: std::time::Instant) -> u64 { t.elapsed().as_micros() as u64 }\n";
        assert_eq!(rules_of("crates/core/src/eval.rs", src), vec![("clock", 1)]);
        // A field named elapsed is not a call.
        let src2 = "struct S { elapsed: u64 }\nfn f(s: &S) -> u64 { s.elapsed }\n";
        assert!(rules_of("crates/core/src/eval.rs", src2).is_empty());
    }

    #[test]
    fn clocks_allowed_in_telemetry_and_bench_but_reapplied_to_payload_modules() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(rules_of("crates/telemetry/src/lib.rs", src).is_empty());
        assert!(rules_of("crates/bench/tests/perf_gates.rs", src).is_empty());
        assert_eq!(
            rules_of("crates/telemetry/src/events.rs", src),
            vec![("clock", 1)]
        );
        assert_eq!(
            rules_of("crates/telemetry/src/trace.rs", src),
            vec![("clock", 1)]
        );
    }

    #[test]
    fn strings_and_comments_no_longer_false_positive() {
        // The false-positive classes the grep could not avoid.
        let src = "// Instant::now() would be bad here\n\
                   fn f() -> &'static str { \"Instant::now()\" }\n\
                   fn g() -> &'static str { \"HashMap::new()\" }\n\
                   fn h() -> &'static str { \".unwrap()\" }\n";
        assert!(rules_of("crates/core/src/pipeline.rs", src).is_empty());
    }

    #[test]
    fn hash_mention_flagged_and_marker_clears_it() {
        let bad = "fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n}\n";
        let v = rules_of("crates/core/src/c2detect.rs", bad);
        assert_eq!(v, vec![("hash", 2), ("hash", 2)]); // type + constructor
        let marked =
            "fn f() {\n    // lookup only. lint: hash-ok\n    let m: HashMap<u32, u32> = HashMap::new();\n}\n";
        assert!(rules_of("crates/core/src/c2detect.rs", marked).is_empty());
    }

    #[test]
    fn hash_scope_covers_serializing_crates_and_skips_use_and_tests() {
        let src = "let m = HashMap::new();\n";
        for path in [
            "crates/sandbox/src/process.rs",
            "crates/netsim/src/stack.rs",
            "crates/botgen/src/world.rs",
            "crates/intel/src/feeds.rs",
            "crates/telemetry/src/lib.rs",
            "crates/protocols/src/lib.rs",
        ] {
            assert_eq!(rules_of(path, src).len(), 1, "{path}");
        }
        // Out of scope: non-serializing crates, tests dirs, the lint itself.
        assert!(rules_of("crates/mips/src/block.rs", src).is_empty());
        assert!(rules_of("crates/core/tests/determinism.rs", src).is_empty());
        assert!(rules_of("crates/lint/src/rules.rs", src).is_empty());
        // Imports and test modules are fine.
        let imp = "use std::collections::HashMap;\n#[cfg(test)]\nmod t { fn f() { let m: HashMap<u32,u32> = HashMap::new(); } }\n";
        assert!(rules_of("crates/wire/src/dns.rs", imp).is_empty());
    }

    #[test]
    fn hash_iteration_distinguished_from_lookup() {
        let src = "struct S { m: HashMap<u32, u32> } // lookup index. lint: hash-ok\n\
                   impl S {\n\
                       fn get(&self, k: u32) -> Option<&u32> { self.m.get(&k) }\n\
                       fn all(&self) -> Vec<u32> { self.m.keys().copied().collect() }\n\
                   }\n";
        // Lookup via .get is silent; .keys() iteration fires even though
        // the declaration itself is annotated lookup-only.
        let v = rules_of("crates/core/src/c2detect.rs", src);
        assert_eq!(v, vec![("hash-iter", 4)]);
    }

    #[test]
    fn hash_for_loop_iteration_fires() {
        let src = "struct S { m: HashMap<u32, u32> } // counts. lint: hash-ok\n\
                   impl S {\n\
                       fn dump(&self) { for kv in &self.m { let _ = kv; } }\n\
                   }\n";
        assert_eq!(
            rules_of("crates/core/src/c2detect.rs", src),
            vec![("hash-iter", 3)]
        );
    }

    #[test]
    fn panic_family_is_caught_and_marker_clears_it() {
        let bad = "fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n\
                   fn g() { unreachable!() }\n\
                   fn h() { todo!() }\n\
                   fn i() { unimplemented!() }\n\
                   fn j(r: Result<u32, u32>) -> u32 { r.expect_err(\"x\") }\n";
        let v = rules_of("crates/core/src/pipeline.rs", bad);
        assert_eq!(
            v,
            vec![
                ("panic", 2),
                ("panic", 4),
                ("panic", 5),
                ("panic", 6),
                ("panic", 7)
            ]
        );
        let marked =
            "fn f(v: Option<u32>) -> u32 {\n    // set above. lint: panic-ok\n    v.unwrap()\n}\n";
        assert!(rules_of("crates/core/src/pipeline.rs", marked).is_empty());
    }

    #[test]
    fn panic_match_spans_physical_lines() {
        // Satellite fix: the grep was line-based, so a method chain
        // broken before `.expect(` escaped it.
        let src = "fn f(v: Vec<Result<u32, String>>) -> Vec<u32> {\n\
                       v.into_iter()\n\
                        .collect::<Result<Vec<_>, _>>()\n\
                        .expect(\"all ok\")\n\
                   }\n";
        assert_eq!(rules_of("crates/wire/src/dns.rs", src), vec![("panic", 4)]);
    }

    #[test]
    fn panic_rule_skips_test_modules() {
        let src = "fn prod(v: Option<u32>) -> u32 {\n    v.expect(\"set\")\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { panic!(\"boom\") }\n}\n";
        assert_eq!(rules_of("crates/wire/src/dns.rs", src), vec![("panic", 2)]);
        assert!(rules_of("crates/sandbox/src/emu.rs", src).is_empty());
    }

    #[test]
    fn computed_wire_index_flagged_fixed_offsets_allowed() {
        let src = "fn decode(data: &[u8], len: usize) -> (u8, &[u8]) {\n\
                       let b = data[0];\n\
                       let rest = &data[4..len];\n\
                       (b, rest)\n\
                   }\n";
        assert_eq!(rules_of("crates/wire/src/udp.rs", src), vec![("index", 3)]);
        // Out of scope everywhere else.
        assert!(rules_of("crates/core/src/pipeline.rs", src).is_empty());
        // Attributes, types and macros are not index expressions.
        let benign = "#[derive(Debug)]\nstruct S([u8; 4]);\nfn f() -> Vec<u8> { vec![0u8; 4] }\n";
        assert!(rules_of("crates/wire/src/udp.rs", benign).is_empty());
        // Keywords before `[` are not receivers: slice patterns and
        // tuple-struct array fields must not trip the rule.
        let patterns = "pub struct MacAddr(pub [u8; 6]);\n\
                        fn g(c: &[u8]) {\n\
                            if let [last] = c {\n\
                                let _ = last;\n\
                            }\n\
                            for [a, b] in [[1, 2]] {\n\
                                let _ = a + b;\n\
                            }\n\
                        }\n";
        assert!(rules_of("crates/wire/src/mac.rs", patterns).is_empty());
    }

    #[test]
    fn literal_seeded_rng_flagged_derived_seed_allowed() {
        let bad = "fn f() -> StdRng { StdRng::seed_from_u64(42) }\n";
        assert_eq!(rules_of("crates/netsim/src/net.rs", bad), vec![("seed", 1)]);
        let good = "fn f(seed: u64) -> StdRng { StdRng::seed_from_u64(seed ^ 0x6d61) }\n";
        assert!(rules_of("crates/netsim/src/net.rs", good).is_empty());
        // prng itself and test modules stay free.
        assert!(rules_of("crates/prng/src/lib.rs", bad).is_empty());
        let in_test = format!("#[cfg(test)]\nmod t {{ {bad} }}\n");
        assert!(rules_of("crates/netsim/src/net.rs", &in_test).is_empty());
    }

    #[test]
    fn entropy_sources_banned_even_in_tests() {
        let src = "#[cfg(test)]\nmod t { fn f() { let r = StdRng::from_entropy(); } }\n";
        assert_eq!(
            rules_of("crates/core/src/pipeline.rs", src),
            vec![("seed", 2)]
        );
    }

    #[test]
    fn inline_domain_literal_flagged_const_decl_collected() {
        let bad = "fn f(seed: u64) -> u64 { seed ^ 0x5eed_0000_0000_0009 }\n";
        assert_eq!(
            rules_of("crates/core/src/prober.rs", bad),
            vec![("seed", 1)]
        );
        let good = "/// Stream domain.\nconst DOMAIN_TEST: u64 = 0x5eed_0000_0000_0009;\n\
                    fn f(seed: u64) -> u64 { seed ^ DOMAIN_TEST }\n";
        let lint = lint_file("crates/core/src/prober.rs", good);
        assert!(lint.findings.is_empty(), "{:?}", lint.findings);
        assert_eq!(lint.domains.len(), 1);
        assert_eq!(lint.domains[0].name, "DOMAIN_TEST");
        assert_eq!(lint.domains[0].value, 0x5eed_0000_0000_0009);
    }

    #[test]
    fn domain_uniqueness_is_cross_file() {
        let a = lint_file(
            "crates/core/src/a.rs",
            "const DOMAIN_A: u64 = 0x5eed_0000_0000_0001;\n",
        );
        let b = lint_file(
            "crates/core/src/b.rs",
            "const DOMAIN_B: u64 = 0x5eed_0000_0000_0001;\n\
             const DOMAIN_A: u64 = 0x5eed_0000_0000_0002;\n",
        );
        let mut domains = a.domains;
        domains.extend(b.domains);
        let findings = check_domain_uniqueness(&domains);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("reuses value")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("already declared")));
    }

    #[test]
    fn stale_suppression_is_itself_an_error() {
        let src = "fn f() -> u32 {\n    // historical: lint: panic-ok\n    1\n}\n";
        let v = rules_of("crates/core/src/pipeline.rs", src);
        assert_eq!(v, vec![("stale-suppression", 2)]);
        // Doc comments mentioning the grammar are inert.
        let doc = "/// Annotate with `lint: panic-ok` and a reason.\nfn f() -> u32 { 1 }\n";
        assert!(rules_of("crates/core/src/pipeline.rs", doc).is_empty());
    }

    #[test]
    fn marker_counts_are_reported() {
        let src = "fn f(v: Option<u32>) -> u32 {\n\
                       v.unwrap() // invariant: set in new(). lint: panic-ok\n\
                   }\n\
                   // dead marker: lint: hash-ok\n";
        let lint = lint_file("crates/core/src/pipeline.rs", src);
        assert_eq!(lint.markers, 2);
        assert_eq!(lint.markers_used, 1);
        assert_eq!(lint.findings.len(), 1);
        assert_eq!(lint.findings[0].rule, "stale-suppression");
    }
}
