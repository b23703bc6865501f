//! Workspace call graph, per-function fact extraction, and the semantic
//! rules that run over it: D6 determinism-taint reachability, D7
//! lock-order analysis, and D8 panic-path closure.
//!
//! The graph is deliberately *may-call* conservative (see DESIGN.md §5i):
//! a call site resolves to **every** workspace function its name could
//! plausibly mean, so dyn-trait dispatch (`Box<dyn Workload>` ticking a
//! workloads impl from tiersim) is covered without type analysis. Calls
//! that resolve to nothing are external (std or a dependency we cannot
//! audit): they introduce no taint, no panics and no locks of their own —
//! every fact the rules care about is *textual* inside workspace bodies,
//! so an external callee cannot smuggle one past extraction. The two
//! directions are therefore both safe: over-resolution can only add
//! paths (more audit, never less), and external calls carry no facts to
//! miss.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parse::{self, parse_file, ParsedFile, Tok, TokKind};
use crate::{annotation_reason, Finding, Rule, ENTROPY_IDENTS, ORDERED_CRATES};

/// Crates excluded from the graph: tooling that never links into the
/// simulation binaries (`bench` reads wall clocks by design; `lint` and
/// `proptest-lite` are build-time dev tools).
const EXCLUDED_CRATES: &[&str] = &["bench", "lint", "proptest-lite"];

/// Method names from std's container/iterator/formatting vocabulary.
/// A `.get(` or `.len(` call resolves to a std type in virtually every
/// call site; resolving it to the handful of workspace methods that
/// happen to share the name (e.g. `PageTable::entry`, `EventRing::push`)
/// manufactures cross-crate paths that do not exist. These names are
/// treated as external at *method* call sites only — qualified calls
/// (`EventRing::push`) still resolve, and the sources/panics inside
/// such workspace methods are still audited from their own crate's
/// entry points (every ordered-crate fn is a D6 root) and from callers
/// that use distinctive names.
const STD_VOCAB_METHODS: &[&str] = &[
    "all", "any", "as_mut", "as_ref", "as_slice", "as_str", "chain", "clear", "clone", "cloned",
    "cmp", "collect", "contains", "contains_key", "copied", "count", "default", "dedup", "drain",
    "entry", "enumerate", "eq", "extend", "filter", "find", "first", "flat_map", "flatten",
    "flush", "fmt", "fold", "from", "get", "get_mut", "hash", "insert", "into", "into_iter",
    "is_empty", "iter", "iter_mut", "join", "last", "len", "map", "max", "min", "ne", "next",
    "parse", "pop", "position", "push", "read", "remove", "replace", "retain", "rev", "sort",
    "sort_by", "sort_unstable", "split", "sum", "take", "to_owned", "to_string", "to_vec",
    "trim", "write", "zip",
];

/// Files whose every non-test fn is a D8 root: the transactional
/// migration paths.
const PANIC_ROOT_FILES: &[&str] =
    &["crates/tiersim/src/migrate.rs", "crates/mtm/src/migration.rs"];

/// Further roots of the D8 panic-free closure: the transactional
/// relocation primitives and the async-migration commit/abort engine.
/// `owner` narrows a common name to one impl.
const PANIC_ROOTS: &[(&str, Option<&str>)] = &[
    ("relocate_range", None),
    ("relocate_with_retry", None),
    ("migrate", Some("MigrationEngine")),
    ("enqueue_async", Some("MigrationEngine")),
    ("resolve_pending", Some("MigrationEngine")),
    ("drop_migration", Some("MigrationEngine")),
];

/// A lock's identity: `(file, variable)` — the last identifier in the
/// receiver chain of `.lock()`. Coarse, but every Mutex in this
/// workspace is reached through a stable field or static accessor name,
/// so the pair is unique in practice and, crucially, *stable* across the
/// functions that lock the same Mutex.
pub type LockId = (String, String);

fn lock_name(l: &LockId) -> String {
    format!("{}::{}", l.0, l.1)
}

/// A D1/D2/D3 source occurrence inside a function body.
#[derive(Clone, Debug)]
pub struct SourceFact {
    /// 1-based line.
    pub line: u32,
    /// The textual rule this source belongs to (D1/D2/D3).
    pub base: Rule,
    /// The offending token, for messages.
    pub what: String,
}

/// A panicking shortcut inside a function body.
#[derive(Clone, Debug)]
pub struct PanicFact {
    /// 1-based line.
    pub line: u32,
    /// The offending token, for messages.
    pub what: String,
}

/// One lock acquisition, with the locks already held at that point.
#[derive(Clone, Debug)]
pub struct Acquire {
    /// 1-based line.
    pub line: u32,
    /// The lock being acquired.
    pub lock: LockId,
    /// Locks held when acquiring (order edges `held -> lock`).
    pub held: Vec<LockId>,
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `f(...)` — a bare path call.
    Bare,
    /// `.f(...)` — a method call.
    Method,
    /// `Hint::f(...)` — qualified; the hint filters candidates.
    Qual(String),
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// 1-based line.
    pub line: u32,
    /// Callee name after `use ... as ...` rename substitution.
    pub name: String,
    /// Qualification of the call.
    pub kind: CallKind,
    /// Locks held across the call (for D7 propagation).
    pub held: Vec<LockId>,
    /// Resolved candidate callees (indices into [`Workspace::fns`]).
    pub callees: Vec<usize>,
}

/// One non-test workspace function with its extracted facts.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Workspace-relative file path.
    pub rel: String,
    /// Crate directory name (`tiersim`, `mtm`, ...).
    pub crate_name: String,
    /// Bare function name.
    pub name: String,
    /// `impl`/`trait` owner type, if a method.
    pub owner: Option<String>,
    /// 1-based declaration line.
    pub line: u32,
    /// Call sites, in body order.
    pub calls: Vec<CallSite>,
    /// D1/D2/D3 source touches.
    pub sources: Vec<SourceFact>,
    /// Panicking shortcuts.
    pub panics: Vec<PanicFact>,
    /// Lock acquisitions.
    pub acquires: Vec<Acquire>,
}

impl FnNode {
    /// Display name: `Owner::name` for methods.
    pub fn qual(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The whole-workspace call graph plus per-file context for emission.
pub struct Workspace {
    /// Every non-test function in graph scope.
    pub fns: Vec<FnNode>,
    by_name: BTreeMap<String, Vec<usize>>,
    /// Known `impl`/`trait` owner type names (qualified-call hints).
    type_names: BTreeSet<String>,
    /// Known module-ish names: crate dirs, file stems, inline mods.
    module_names: BTreeSet<String>,
    /// Raw lines per file, for annotation checks at emission time.
    raw: BTreeMap<String, Vec<String>>,
}

/// `crates/<name>/src/...` -> `<name>`; None for out-of-tree layouts.
fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// File stem of a relative path (`.../migrate.rs` -> `migrate`).
fn file_stem(rel: &str) -> &str {
    rel.rsplit('/').next().unwrap_or(rel).trim_end_matches(".rs")
}

/// A guard held on the simulated lock stack during body extraction.
struct Guard {
    /// Binding name for `drop(name)` release; None for temporaries.
    name: Option<String>,
    lock: LockId,
    /// Brace depth the guard dies at (scope close).
    depth: i64,
    /// Temporaries also die at the next `;` at their depth.
    temp: bool,
}

/// Per-file extraction context shared across that file's functions.
struct FileCtx<'a> {
    parsed: &'a ParsedFile,
    raw_lines: Vec<&'a str>,
    renames: BTreeMap<String, String>,
}

impl FileCtx<'_> {
    /// True when the 1-based line carries a justified (non-empty-reason)
    /// `lint:allow` for any of `slugs` — the author looked at this exact
    /// line, so the semantic rule riding on the same fact trusts it.
    fn line_allowed(&self, line: u32, slugs: &[&str]) -> bool {
        let idx = line as usize - 1;
        if idx >= self.raw_lines.len() {
            return false;
        }
        slugs.iter().any(|s| {
            matches!(annotation_reason(&self.raw_lines, idx, s), Some(r) if !r.is_empty())
        })
    }

    fn rename(&self, name: &str) -> String {
        self.renames.get(name).cloned().unwrap_or_else(|| name.to_string())
    }
}

/// Walks one function body extracting calls, sources, panics and lock
/// acquisitions with held-set tracking.
fn extract_facts(ctx: &FileCtx<'_>, f: &parse::FnItem, node: &mut FnNode) {
    let toks = &ctx.parsed.toks;
    let has_rwlock = ctx.parsed.has_rwlock;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i64 = 0;
    let mut pending_let: Option<String> = None;
    let mut pending_cond_let: Option<String> = None;
    let held_now = |guards: &[Guard]| -> Vec<LockId> {
        let mut h: Vec<LockId> = guards.iter().map(|g| g.lock.clone()).collect();
        h.sort();
        h.dedup();
        h
    };

    let mut k = f.body.start;
    while k < f.body.end {
        if let Some(r) = f.nested.iter().find(|r| r.contains(&k)) {
            k = r.end;
            continue;
        }
        let t = &toks[k];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                if let Some(name) = pending_cond_let.take() {
                    // An `if let Ok(g) = x.lock()` guard binds into the
                    // block we just opened — but only if an acquisition
                    // actually claimed it (flagged by a sentinel below).
                    if let Some(g) = guards.iter_mut().rev().find(|g| g.depth == i64::MAX) {
                        g.depth = depth;
                        g.name = Some(name);
                    }
                }
            }
            (TokKind::Punct, "}") => {
                guards.retain(|g| g.depth != depth && g.depth != i64::MAX);
                depth -= 1;
                pending_let = None;
                pending_cond_let = None;
            }
            (TokKind::Punct, ";") => {
                guards.retain(|g| !(g.temp && g.depth == depth));
                pending_let = None;
                pending_cond_let = None;
            }
            (TokKind::Ident, "let") => {
                let cond = k > f.body.start
                    && matches!(toks.get(k - 1), Some(p) if p.is_ident("if") || p.is_ident("while"));
                // `let [mut] name =` / `if let Ok(name) =`.
                let mut j = k + 1;
                if cond {
                    if toks.get(j).is_some_and(|t| t.is_ident("Ok") || t.is_ident("Some"))
                        && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
                        && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident)
                        && toks.get(j + 3).is_some_and(|t| t.is_punct(')'))
                    {
                        pending_cond_let = Some(toks[j + 2].text.clone());
                    }
                } else {
                    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                        j += 1;
                    }
                    if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                        pending_let = Some(name.text.clone());
                    }
                }
            }
            (TokKind::Ident, "drop")
                if toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(k + 2).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(k + 3).is_some_and(|t| t.is_punct(')')) =>
            {
                let victim = &toks[k + 2].text;
                if let Some(pos) =
                    guards.iter().rposition(|g| g.name.as_deref() == Some(victim.as_str()))
                {
                    guards.remove(pos);
                }
                k += 4;
                continue;
            }
            _ => {}
        }

        // Lock acquisition (handled outside the match so we can fall
        // through to panic-fact detection for the same tokens).
        let is_acquire = t.kind == TokKind::Ident
            && (t.text == "lock" || (has_rwlock && (t.text == "read" || t.text == "write")))
            && k > f.body.start
            && toks[k - 1].is_punct('.')
            && toks.get(k + 1).is_some_and(|tt| tt.is_punct('('));
        if is_acquire {
            if let Some(var) = receiver_name(toks, f.body.start, k - 1) {
                let lock: LockId = (node.rel.clone(), var);
                let held = held_now(&guards);
                node.acquires.push(Acquire { line: t.line, lock: lock.clone(), held });
                // Classify the guard: chain must end (modulo a single
                // .unwrap()/.expect(...)) at `;` (let-bound) or `{`
                // (if/while-let) to outlive the statement.
                let close = skip_call(toks, k + 1, f.body.end);
                let mut m = close;
                if toks.get(m).is_some_and(|tt| tt.is_punct('.'))
                    && toks
                        .get(m + 1)
                        .is_some_and(|tt| tt.is_ident("unwrap") || tt.is_ident("expect"))
                    && toks.get(m + 2).is_some_and(|tt| tt.is_punct('('))
                {
                    m = skip_call(toks, m + 2, f.body.end);
                }
                match toks.get(m) {
                    Some(tt) if tt.is_punct(';') && pending_let.is_some() => {
                        guards.push(Guard {
                            name: pending_let.take(),
                            lock,
                            depth,
                            temp: false,
                        });
                    }
                    Some(tt) if tt.is_punct('{') && pending_cond_let.is_some() => {
                        // Sentinel depth: bound into the block when its
                        // `{` is processed above.
                        guards.push(Guard { name: None, lock, depth: i64::MAX, temp: false });
                    }
                    _ => {
                        // Temporary: held to the end of this statement.
                        guards.push(Guard { name: None, lock, depth, temp: true });
                    }
                }
            }
            k += 1;
            continue;
        }

        // Panic facts: `.unwrap()`, `.expect(`, `panic!`, etc.
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && k > f.body.start
            && toks[k - 1].is_punct('.')
            && toks.get(k + 1).is_some_and(|tt| tt.is_punct('('))
        {
            if !ctx.line_allowed(t.line, &["panic-path"]) {
                node.panics.push(PanicFact { line: t.line, what: format!(".{}(", t.text) });
            }
            k += 1;
            continue;
        }
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
            && toks.get(k + 1).is_some_and(|tt| tt.is_punct('!'))
        {
            if !ctx.line_allowed(t.line, &["panic-path"]) {
                node.panics.push(PanicFact { line: t.line, what: format!("{}!", t.text) });
            }
            k += 1;
            continue;
        }

        // Source facts (D1/D2/D3).
        if t.kind == TokKind::Ident {
            let fact = if (t.text == "Instant" || t.text == "SystemTime")
                && toks.get(k + 1).is_some_and(|tt| tt.is_punct(':'))
                && toks.get(k + 2).is_some_and(|tt| tt.is_punct(':'))
                && toks.get(k + 3).is_some_and(|tt| tt.is_ident("now"))
            {
                Some((Rule::WallClock, format!("{}::now", t.text), "wall-clock"))
            } else if t.text == "HashMap" || t.text == "HashSet" {
                Some((Rule::UnorderedMap, t.text.clone(), "unordered-map"))
            } else if ENTROPY_IDENTS.contains(&t.text.as_str()) {
                Some((Rule::Entropy, t.text.clone(), "entropy"))
            } else if t.text == "rand"
                && toks.get(k + 1).is_some_and(|tt| tt.is_punct(':'))
                && toks.get(k + 2).is_some_and(|tt| tt.is_punct(':'))
            {
                Some((Rule::Entropy, "rand::".to_string(), "entropy"))
            } else {
                None
            };
            if let Some((base, what, slug)) = fact {
                if !ctx.line_allowed(t.line, &[slug, "determinism-taint"]) {
                    node.sources.push(SourceFact { line: t.line, base, what });
                }
            }
        }

        // Call sites: ident followed by `(`, not a macro, not a keyword,
        // not one of the specials handled above.
        if t.kind == TokKind::Ident
            && !parse::is_keyword(&t.text)
            && toks.get(k + 1).is_some_and(|tt| tt.is_punct('('))
            && !matches!(t.text.as_str(), "lock" | "unwrap" | "expect" | "drop")
        {
            let kind = if k > f.body.start && toks[k - 1].is_punct('.') {
                CallKind::Method
            } else if k >= f.body.start + 2
                && toks[k - 1].is_punct(':')
                && toks[k - 2].is_punct(':')
            {
                match toks.get(k.wrapping_sub(3)) {
                    Some(h) if k >= f.body.start + 3 && h.kind == TokKind::Ident => {
                        CallKind::Qual(ctx.rename(&h.text))
                    }
                    // `>::f(` / `)::f(` — unresolvable path head.
                    _ => CallKind::Qual(String::new()),
                }
            } else {
                CallKind::Bare
            };
            let name = match kind {
                CallKind::Bare => ctx.rename(&t.text),
                _ => t.text.clone(),
            };
            node.calls.push(CallSite {
                line: t.line,
                name,
                kind,
                held: held_now(&guards),
                callees: Vec::new(),
            });
        }

        k += 1;
    }
}

/// Index one past the closing paren of the call whose `(` sits at `open`.
fn skip_call(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < end {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    end
}

/// The receiver variable of a `.lock()` chain: walking left from the
/// dot at `dot`, skip balanced `(...)`/`[...]` groups and `.` links and
/// return the first identifier — `self.counters.lock()` -> `counters`,
/// `cache().lock()` -> `cache`, `slots[i].lock()` -> `slots`.
fn receiver_name(toks: &[Tok], start: usize, dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    loop {
        let t = &toks[j];
        if t.is_punct(')') || t.is_punct(']') {
            let (open, close) = if t.is_punct(')') { ('(', ')') } else { ('[', ']') };
            let mut depth = 0i64;
            while j > start {
                if toks[j].is_punct(close) {
                    depth += 1;
                } else if toks[j].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j -= 1;
            }
            if j == start {
                return None;
            }
            j -= 1;
        } else if t.kind == TokKind::Ident {
            if parse::is_keyword(&t.text) && t.text != "self" {
                return None;
            }
            return Some(t.text.clone());
        } else if t.is_punct('.') {
            if j == start {
                return None;
            }
            j -= 1;
        } else {
            return None;
        }
    }
}

impl Workspace {
    /// Parses every in-scope source and builds the resolved call graph.
    pub fn build(files: &[(String, String)]) -> Workspace {
        let mut parsed: Vec<(String, ParsedFile)> = Vec::new();
        for (rel, src) in files {
            let Some(c) = crate_of(rel) else { continue };
            if EXCLUDED_CRATES.contains(&c) || crate::is_test_path(rel) {
                continue;
            }
            parsed.push((c.to_string(), parse_file(rel, src)));
        }

        let mut ws = Workspace {
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            type_names: BTreeSet::new(),
            module_names: BTreeSet::new(),
            raw: BTreeMap::new(),
        };
        for (c, pf) in &parsed {
            ws.module_names.insert(c.clone());
            // Workspace lib names: a crate dir `workloads` is imported as
            // `mtm_workloads` (and some simply by dir name).
            ws.module_names.insert(format!("mtm_{c}"));
            ws.module_names.insert(file_stem(&pf.rel).to_string());
            for f in &pf.fns {
                if let Some(o) = &f.owner {
                    ws.type_names.insert(o.clone());
                }
                for m in &f.module {
                    ws.module_names.insert(m.clone());
                }
            }
        }
        for (rel, src) in files {
            ws.raw.insert(rel.clone(), src.lines().map(str::to_string).collect());
        }

        for (c, pf) in &parsed {
            let src = &files.iter().find(|(r, _)| r == &pf.rel).expect("parsed from files").1;
            let ctx = FileCtx {
                parsed: pf,
                raw_lines: src.lines().collect(),
                renames: pf
                    .renames
                    .iter()
                    .map(|r| (r.alias.clone(), r.target.clone()))
                    .collect(),
            };
            for f in &pf.fns {
                if f.is_test {
                    continue;
                }
                let mut node = FnNode {
                    rel: pf.rel.clone(),
                    crate_name: c.clone(),
                    name: f.name.clone(),
                    owner: f.owner.clone(),
                    line: f.line,
                    calls: Vec::new(),
                    sources: Vec::new(),
                    panics: Vec::new(),
                    acquires: Vec::new(),
                };
                extract_facts(&ctx, f, &mut node);
                ws.fns.push(node);
            }
        }

        for (i, f) in ws.fns.iter().enumerate() {
            ws.by_name.entry(f.name.clone()).or_default().push(i);
        }
        ws.resolve();
        ws
    }

    /// Fills every call site's candidate list (see module docs for the
    /// conservative-resolution rationale).
    fn resolve(&mut self) {
        let mut resolved: Vec<Vec<Vec<usize>>> = Vec::with_capacity(self.fns.len());
        for f in &self.fns {
            let mut per_fn = Vec::with_capacity(f.calls.len());
            for c in &f.calls {
                per_fn.push(self.candidates(f, c));
            }
            resolved.push(per_fn);
        }
        for (f, per_fn) in self.fns.iter_mut().zip(resolved) {
            for (c, cand) in f.calls.iter_mut().zip(per_fn) {
                c.callees = cand;
            }
        }
    }

    fn candidates(&self, caller: &FnNode, call: &CallSite) -> Vec<usize> {
        let all = match self.by_name.get(&call.name) {
            Some(v) => v.as_slice(),
            None => return Vec::new(),
        };
        let pick = |pred: &dyn Fn(&FnNode) -> bool| -> Vec<usize> {
            all.iter().copied().filter(|&i| pred(&self.fns[i])).collect()
        };
        match &call.kind {
            CallKind::Method => {
                if STD_VOCAB_METHODS.contains(&call.name.as_str()) {
                    Vec::new()
                } else {
                    pick(&|f| f.owner.is_some())
                }
            }
            CallKind::Bare => {
                let local = pick(&|f| f.owner.is_none() && f.crate_name == caller.crate_name);
                if !local.is_empty() {
                    local
                } else {
                    pick(&|f| f.owner.is_none())
                }
            }
            CallKind::Qual(hint) => {
                if hint.is_empty() {
                    return Vec::new();
                }
                match hint.as_str() {
                    "crate" | "self" | "super" => {
                        let local =
                            pick(&|f| f.owner.is_none() && f.crate_name == caller.crate_name);
                        if !local.is_empty() {
                            local
                        } else {
                            pick(&|f| f.owner.is_none())
                        }
                    }
                    "Self" => pick(&|f| f.rel == caller.rel),
                    h if self.type_names.contains(h) => pick(&|f| f.owner.as_deref() == Some(h)),
                    h if self.module_names.contains(h) => {
                        let bare = h.strip_prefix("mtm_").unwrap_or(h);
                        pick(&|f| {
                            f.owner.is_none()
                                && (f.crate_name == bare || file_stem(&f.rel) == h)
                        })
                    }
                    // Unknown hint (Box, Arc, Vec, Instant, ...): an
                    // external type — no workspace candidates.
                    _ => Vec::new(),
                }
            }
        }
    }

    /// True when the 1-based line in `rel` carries a justified
    /// `lint:allow` for `slug`.
    fn emission_allowed(&self, rel: &str, line: u32, slug: &str) -> bool {
        let Some(lines) = self.raw.get(rel) else { return false };
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let idx = line as usize - 1;
        idx < refs.len()
            && matches!(annotation_reason(&refs, idx, slug), Some(r) if !r.is_empty())
    }

    /// Multi-source BFS over resolved calls; returns the parent map
    /// (`parent[i] == usize::MAX` marks a root).
    fn bfs(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut q: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if !parent.contains_key(&r) {
                parent.insert(r, usize::MAX);
                q.push_back(r);
            }
        }
        while let Some(i) = q.pop_front() {
            for c in &self.fns[i].calls {
                for &g in &c.callees {
                    if !parent.contains_key(&g) {
                        parent.insert(g, i);
                        q.push_back(g);
                    }
                }
            }
        }
        parent
    }

    /// Witness chain `root -> ... -> i`, capped for readability.
    fn chain(&self, parent: &BTreeMap<usize, usize>, mut i: usize) -> String {
        let mut names = vec![self.fns[i].qual()];
        while let Some(&p) = parent.get(&i) {
            if p == usize::MAX {
                break;
            }
            names.push(self.fns[p].qual());
            i = p;
        }
        names.reverse();
        if names.len() > 6 {
            let skipped = names.len() - 6;
            let head = names[..3].join(" -> ");
            let tail = names[names.len() - 3..].join(" -> ");
            format!("{head} -> [{skipped} more] -> {tail}")
        } else {
            names.join(" -> ")
        }
    }

    /// D6: no function reachable from a decision/report entry point (any
    /// non-test fn in the ordered crates) may reach a D1/D2/D3 source.
    /// `base` holds the textual findings that survived the allowlist, so
    /// already-visible sites are not double-reported.
    pub fn check_taint(&self, base: &BTreeSet<(String, usize, Rule)>) -> Vec<Finding> {
        let ordered: BTreeSet<&str> = ORDERED_CRATES
            .iter()
            .map(|p| p.trim_start_matches("crates/").trim_end_matches('/'))
            .collect();
        let roots: Vec<usize> = (0..self.fns.len())
            .filter(|&i| ordered.contains(self.fns[i].crate_name.as_str()))
            .collect();
        let parent = self.bfs(&roots);
        let mut out = Vec::new();
        let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
        for (&i, _) in &parent {
            let f = &self.fns[i];
            for s in &f.sources {
                if base.contains(&(f.rel.clone(), s.line as usize, s.base)) {
                    continue; // the textual rule already reports it
                }
                if !seen.insert((f.rel.clone(), s.line)) {
                    continue;
                }
                if self.emission_allowed(&f.rel, s.line, "determinism-taint") {
                    continue;
                }
                out.push(Finding {
                    path: f.rel.clone(),
                    line: s.line as usize,
                    rule: Rule::DeterminismTaint,
                    message: format!(
                        "`{}` reachable from decision path: {}",
                        s.what,
                        self.chain(&parent, i)
                    ),
                });
            }
        }
        out
    }

    /// D8: the transitive closure of the migration roots must
    /// be free of panicking shortcuts.
    pub fn check_panic_paths(&self) -> Vec<Finding> {
        let roots: Vec<usize> = (0..self.fns.len())
            .filter(|&i| {
                let f = &self.fns[i];
                let in_root_file =
                    PANIC_ROOT_FILES.iter().any(|p| f.rel == *p || f.rel.ends_with(p));
                in_root_file
                    || PANIC_ROOTS.iter().any(|(n, o)| {
                        f.name == *n && o.map_or(true, |o| f.owner.as_deref() == Some(o))
                    })
            })
            .collect();
        let parent = self.bfs(&roots);
        let mut out = Vec::new();
        let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
        for (&i, _) in &parent {
            let f = &self.fns[i];
            for p in &f.panics {
                if !seen.insert((f.rel.clone(), p.line)) {
                    continue;
                }
                out.push(Finding {
                    path: f.rel.clone(),
                    line: p.line as usize,
                    rule: Rule::PanicPath,
                    message: format!(
                        "`{}` reachable from transactional path: {}",
                        p.what,
                        self.chain(&parent, i)
                    ),
                });
            }
        }
        out
    }

    /// Every lock a function may acquire, transitively through its
    /// resolved callees (fixpoint over the call graph).
    fn acquired_star(&self) -> Vec<BTreeSet<LockId>> {
        let mut acq: Vec<BTreeSet<LockId>> = self
            .fns
            .iter()
            .map(|f| f.acquires.iter().map(|a| a.lock.clone()).collect())
            .collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let mut add: BTreeSet<LockId> = BTreeSet::new();
                for c in &self.fns[i].calls {
                    for &g in &c.callees {
                        if g != i {
                            add.extend(acq[g].iter().cloned());
                        }
                    }
                }
                for l in add {
                    if acq[i].insert(l) {
                        changed = true;
                    }
                }
            }
            if !changed {
                return acq;
            }
        }
    }

    /// The lock-order edge set: `held -> acquired`, each with one witness
    /// site. Direct acquisitions contribute their own edges; a call made
    /// with locks held contributes edges to everything the callee may
    /// transitively acquire.
    pub fn lock_edges(&self) -> BTreeMap<(LockId, LockId), (String, u32)> {
        let acq = self.acquired_star();
        let mut edges: BTreeMap<(LockId, LockId), (String, u32)> = BTreeMap::new();
        for f in &self.fns {
            for a in &f.acquires {
                for h in &a.held {
                    edges
                        .entry((h.clone(), a.lock.clone()))
                        .or_insert_with(|| (f.rel.clone(), a.line));
                }
            }
            for c in &f.calls {
                if c.held.is_empty() {
                    continue;
                }
                for &g in &c.callees {
                    for l in &acq[g] {
                        for h in &c.held {
                            edges
                                .entry((h.clone(), l.clone()))
                                .or_insert_with(|| (f.rel.clone(), c.line));
                        }
                    }
                }
            }
        }
        edges
    }

    /// D7: any cycle in the lock-order graph (including a self-loop —
    /// re-acquiring a lock already held) is a potential deadlock.
    pub fn check_lock_order(&self) -> Vec<Finding> {
        let edges = self.lock_edges();
        let mut adj: BTreeMap<&LockId, Vec<&LockId>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            adj.entry(a).or_default().push(b);
        }
        // SCCs via iterative Kosaraju over the (sorted, deterministic)
        // node set.
        let nodes: Vec<&LockId> = {
            let mut s: BTreeSet<&LockId> = BTreeSet::new();
            for (a, b) in edges.keys() {
                s.insert(a);
                s.insert(b);
            }
            s.into_iter().collect()
        };
        let index: BTreeMap<&LockId, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let n = nodes.len();
        let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b) in edges.keys() {
            let (ia, ib) = (index[a], index[b]);
            fwd[ia].push(ib);
            rev[ib].push(ia);
        }
        // Pass 1: finish order.
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for s in 0..n {
            if visited[s] {
                continue;
            }
            let mut stack = vec![(s, 0usize)];
            visited[s] = true;
            while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
                if *ei < fwd[v].len() {
                    let w = fwd[v][*ei];
                    *ei += 1;
                    if !visited[w] {
                        visited[w] = true;
                        stack.push((w, 0));
                    }
                } else {
                    order.push(v);
                    stack.pop();
                }
            }
        }
        // Pass 2: reverse-graph components in reverse finish order.
        let mut comp = vec![usize::MAX; n];
        let mut ncomp = 0;
        for &s in order.iter().rev() {
            if comp[s] != usize::MAX {
                continue;
            }
            let mut stack = vec![s];
            comp[s] = ncomp;
            while let Some(v) = stack.pop() {
                for &w in &rev[v] {
                    if comp[w] == usize::MAX {
                        comp[w] = ncomp;
                        stack.push(w);
                    }
                }
            }
            ncomp += 1;
        }
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
        for (v, &c) in comp.iter().enumerate() {
            members[c].push(v);
        }
        let mut out = Vec::new();
        for m in members {
            let cyclic = m.len() > 1
                || (m.len() == 1 && fwd[m[0]].contains(&m[0]));
            if !cyclic {
                continue;
            }
            // Witness edges inside the SCC, with their sites.
            let mset: BTreeSet<usize> = m.iter().copied().collect();
            let mut witness: Vec<String> = Vec::new();
            let mut site: Option<(String, u32)> = None;
            for ((a, b), s) in &edges {
                if mset.contains(&index[a]) && mset.contains(&index[b]) {
                    witness.push(format!("{} -> {} (at {}:{})", lock_name(a), lock_name(b), s.0, s.1));
                    match &site {
                        Some(best) if *best <= *s => {}
                        _ => site = Some(s.clone()),
                    }
                }
            }
            let (path, line) = site.expect("cyclic SCC has at least one edge");
            if self.emission_allowed(&path, line, "lock-order") {
                continue;
            }
            let names: Vec<String> = m.iter().map(|&v| lock_name(nodes[v])).collect();
            out.push(Finding {
                path,
                line: line as usize,
                rule: Rule::LockOrder,
                message: format!(
                    "lock-order cycle among {{{}}}: {}",
                    names.join(", "),
                    witness.join("; ")
                ),
            });
        }
        out
    }

    /// Human-readable dump of the call graph and lock-order graph, for
    /// `bin/lint --graph` triage.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        out.push_str("# call graph (resolved candidates per call site)\n");
        for f in &self.fns {
            out.push_str(&format!("fn {} [{}:{}]\n", f.qual(), f.rel, f.line));
            for c in &f.calls {
                if c.callees.is_empty() {
                    continue;
                }
                let tgts: Vec<String> =
                    c.callees.iter().map(|&g| self.fns[g].qual()).collect();
                let held = if c.held.is_empty() {
                    String::new()
                } else {
                    format!(
                        " [holding {}]",
                        c.held.iter().map(lock_name).collect::<Vec<_>>().join(", ")
                    )
                };
                out.push_str(&format!(
                    "  {}:{} {} -> {}{}\n",
                    f.rel,
                    c.line,
                    c.name,
                    tgts.join(", "),
                    held
                ));
            }
            for s in &f.sources {
                out.push_str(&format!("  {}:{} source {}\n", f.rel, s.line, s.what));
            }
            for p in &f.panics {
                out.push_str(&format!("  {}:{} panic {}\n", f.rel, p.line, p.what));
            }
        }
        out.push_str("# lock-order edges (held -> acquired)\n");
        for ((a, b), (rel, line)) in self.lock_edges() {
            out.push_str(&format!(
                "{} -> {} (at {}:{})\n",
                lock_name(&a),
                lock_name(&b),
                rel,
                line
            ));
        }
        out
    }
}
