//! Lock-discipline lints over the effect model.
//!
//! Every `Mutex`/`RwLock` acquisition in the workspace is resolved to a
//! *lock identity* — a stable name for the lock object itself, not the
//! guard variable:
//!
//! | identity | resolved from |
//! |----------|---------------|
//! | `field:Type.name` | `self.name.lock()` where `Type` declares a lock-typed field `name` (symbol index) |
//! | `static:NAME` | `NAME.lock()` where `NAME` is a lock-typed `static` |
//! | `fn:name` | `name().lock()` — a guard-getter / slot-accessor call receiver |
//! | `local:Fn.name` | anything else (locals, parameters, per-element locks) |
//!
//! On top of the per-function CFG and the workspace call graph, three
//! hard-gated lints enforce the acquisition discipline:
//!
//! | lint | rule |
//! |------|------|
//! | `lock-order-cycle` | the workspace lock-acquisition-order graph (edge `A→B` when `B` is acquired — directly or via any callee — while a guard of `A` is live) must be acyclic |
//! | `double-lock` | no CFG path re-acquires a lock identity while a guard of the same identity is still live |
//! | `guard-escapes-hot-path` | an `// audit:hot-path` fn must not return or store a lock guard |
//!
//! Findings are tolerated only through the shared concurrency ledger
//! `crates/audit/concurrency.txt` (same format and stale-entry contract
//! as `hotpath.txt`; see [`crate::hotpath::Justifications`]).

use crate::cfg::build_cfg;
use crate::diag::{Diagnostic, Severity};
use crate::effects::{EffectModel, EffectSet, FnInfo};
use crate::hotpath::{Justification, Justifications, STUB_REASON};
use crate::resolve::Workspace;
use crate::symbols::{SymbolKind, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// The lock-lint names and one-line rules, for `--help`-style listings.
pub const LOCK_LINTS: &[(&str, &str)] = &[
    (
        "lock-order-cycle",
        "the workspace lock-acquisition-order graph must be acyclic across all call paths",
    ),
    (
        "double-lock",
        "no CFG path re-acquires a lock identity while a guard of the same identity is live",
    ),
    ("guard-escapes-hot-path", "an audit:hot-path fn must not return or store a lock guard"),
];

/// Relative path of the shared concurrency ledger (lock + atomic lints).
pub const CONCURRENCY_LEDGER: &str = "crates/audit/concurrency.txt";

/// Header written above regenerated concurrency ledgers.
pub const CONCURRENCY_HEADER: &str =
    "# Concurrency ledger: every entry tolerates one lock-discipline or\n\
     # atomic-ordering finding.\n\
     # Format: <lint> <crate> <Qualified::fn> <source> [tag] -- reason\n\
     # Maintained by `nucache-audit locks --update-justify`; reasons are hand-written.\n";

/// Lock-acquiring method names that are unambiguous by name alone.
const LOCK_OPS: &[&str] = &["lock", "try_lock"];

/// `RwLock` methods, accepted only when the receiver resolves to a
/// known `RwLock`-typed field or static (they collide with I/O and
/// slice methods too often to trust by name).
const RW_OPS: &[&str] = &["read", "write", "try_read", "try_write"];

/// The lock/atomic receiver universe: which names are lock-typed fields
/// or statics, extracted from the symbol index's declared types.
#[derive(Debug, Default)]
pub(crate) struct LockUniverse {
    /// Field name → parent types declaring a lock- or atomic-typed
    /// field of that name.
    field_parents: BTreeMap<String, BTreeSet<String>>,
    /// Lock- or atomic-typed `static` names.
    statics: BTreeSet<String>,
    /// Subset of `field_parents` keys / `statics` whose type is `RwLock`.
    rw_names: BTreeSet<String>,
}

/// Whether a declared type (whitespace-free text) is a lock or atomic
/// wrapper the concurrency lints should track.
fn is_tracked_type(ty: &str) -> bool {
    ty.contains("Mutex<") || ty.contains("RwLock<") || ty.contains("Atomic")
}

impl LockUniverse {
    /// Builds the universe from every field/static declared type.
    pub(crate) fn build(ws: &Workspace) -> LockUniverse {
        let mut uni = LockUniverse::default();
        for s in &ws.index.symbols {
            let Some(ty) = &s.field_type else { continue };
            if !is_tracked_type(ty) {
                continue;
            }
            match s.kind {
                SymbolKind::Field => {
                    if let Some(parent) = &s.parent {
                        uni.field_parents.entry(s.name.clone()).or_default().insert(parent.clone());
                    }
                }
                SymbolKind::Static => {
                    uni.statics.insert(s.name.clone());
                }
                _ => continue,
            }
            if ty.contains("RwLock<") {
                uni.rw_names.insert(s.name.clone());
            }
        }
        uni
    }

    /// Whether `name` may be an `RwLock` field or static.
    fn is_rw(&self, name: &str) -> bool {
        self.rw_names.contains(name)
    }
}

/// One segment of a receiver chain, rightmost (nearest the lock op)
/// first: `self.cells.lock()` → `[cells, self]`.
#[derive(Debug)]
pub(crate) struct Seg {
    name: String,
    call: bool,
}

/// Walks left from token `before` (the index just before the `.` of the
/// lock/atomic op) collecting the `.`-joined receiver chain. Indexing
/// (`slots[i]`) is skipped over; call parens mark the segment as a call.
pub(crate) fn receiver_segments(toks: &[Token], before: usize, start: usize) -> Vec<Seg> {
    let mut segs = Vec::new();
    let mut j = before as isize;
    let lo = start as isize;
    while j >= lo {
        let mut call = false;
        // Skip trailing index/call groups back to their opener.
        while j >= lo && (toks[j as usize].is_punct(")") || toks[j as usize].is_punct("]")) {
            let close = &toks[j as usize].text;
            let open = if close == ")" { "(" } else { "[" };
            if close == ")" {
                call = true;
            }
            let mut depth = 0i32;
            while j >= lo {
                let t = &toks[j as usize].text;
                if t == close.as_str() {
                    depth += 1;
                } else if t == open {
                    depth -= 1;
                    if depth == 0 {
                        j -= 1;
                        break;
                    }
                }
                j -= 1;
            }
        }
        if j < lo || toks[j as usize].kind != TokKind::Ident {
            break;
        }
        segs.push(Seg { name: toks[j as usize].text.clone(), call });
        j -= 1;
        if j < lo || !toks[j as usize].is_punct(".") {
            break;
        }
        j -= 1;
    }
    segs
}

/// Resolves a receiver chain to a lock identity for function `f`.
pub(crate) fn resolve_identity(segs: &[Seg], f: &FnInfo, uni: &LockUniverse) -> String {
    let Some(first) = segs.first() else {
        return format!("local:{}.opaque", f.qualified());
    };
    // `slot_getter().lock()` — the accessor call names the lock.
    if first.call {
        return format!("fn:{}", first.name);
    }
    // `self.field.lock()` (possibly `self.a.b.lock()`): a field of the
    // enclosing impl type.
    if segs.len() >= 2 && segs.last().is_some_and(|s| s.name == "self" && !s.call) {
        let path: Vec<&str> =
            segs[..segs.len() - 1].iter().rev().map(|s| s.name.as_str()).collect();
        let field = segs[0].name.as_str();
        let parent = f
            .span
            .parent
            .as_deref()
            .filter(|p| uni.field_parents.get(field).is_some_and(|ps| ps.contains(*p)))
            .map(str::to_string)
            .or_else(|| unique_parent(uni, field))
            .or_else(|| f.span.parent.clone())
            .unwrap_or_else(|| "?".to_string());
        return format!("field:{parent}.{}", path.join("."));
    }
    // Bare name: a static, a unique workspace lock field, or a local.
    if segs.len() == 1 {
        let name = first.name.as_str();
        if uni.statics.contains(name) {
            return format!("static:{name}");
        }
        if let Some(parent) = unique_parent(uni, name) {
            return format!("field:{parent}.{name}");
        }
        return format!("local:{}.{name}", f.qualified());
    }
    // Dotted non-self path (`runner.cache.cells`): keep it local but
    // stable on the full path.
    let path: Vec<&str> = segs.iter().rev().map(|s| s.name.as_str()).collect();
    format!("local:{}.{}", f.qualified(), path.join("."))
}

/// The single parent type declaring a tracked field `name`, if unique.
fn unique_parent(uni: &LockUniverse, name: &str) -> Option<String> {
    let parents = uni.field_parents.get(name)?;
    (parents.len() == 1).then(|| parents.iter().next().cloned())?
}

/// One lock acquisition site inside a function body.
#[derive(Debug, Clone)]
struct Acq {
    /// Resolved lock identity.
    ident: String,
    /// 1-indexed source line.
    line: usize,
    /// Token index of the op name (or getter-call name).
    tok: usize,
}

/// Finds every direct lock acquisition in `f`'s body.
fn direct_acqs(toks: &[Token], f: &FnInfo, uni: &LockUniverse) -> Vec<Acq> {
    let mut out = Vec::new();
    let body = f.span.body.clone();
    for i in body.clone() {
        if i + 2 >= body.end || !toks[i].is_punct(".") || !toks[i + 2].is_punct("(") {
            continue;
        }
        let op = toks[i + 1].text.as_str();
        let is_lock = LOCK_OPS.contains(&op);
        let is_rw = RW_OPS.contains(&op);
        if !is_lock && !is_rw {
            continue;
        }
        if i == body.start {
            continue;
        }
        let segs = receiver_segments(toks, i - 1, body.start);
        // read/write/try_read/try_write only count when the receiver is
        // a known RwLock; lock/try_lock always count.
        if is_rw && !segs.first().is_some_and(|s| !s.call && uni.is_rw(&s.name)) {
            continue;
        }
        let ident = resolve_identity(&segs, f, uni);
        out.push(Acq { ident, line: toks[i + 1].line, tok: i + 1 });
    }
    out
}

/// Runs the three lock-discipline lints, returning diagnostics and the
/// full set of required ledger entries for `--update-justify`.
pub fn run_lock_lints(
    ws: &Workspace,
    model: &EffectModel,
    just: &Justifications,
) -> (Vec<Diagnostic>, Vec<Justification>) {
    let uni = LockUniverse::build(ws);
    let mut cx = LockCx {
        ws,
        model,
        just,
        diags: Vec::new(),
        required: Vec::new(),
        used: BTreeSet::new(),
        edges: BTreeMap::new(),
    };

    // Per-fn direct acquisitions + guard-getter identities.
    let mut acqs: Vec<Vec<Acq>> = Vec::with_capacity(model.fns.len());
    for f in &model.fns {
        if f.span.body.is_empty() {
            acqs.push(Vec::new());
            continue;
        }
        acqs.push(direct_acqs(&ws.files[f.file].tokens, f, &uni));
    }
    let getter_ident: Vec<Option<String>> = model
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            is_guard_getter(ws, f).then(|| acqs[i].first().map(|a| a.ident.clone())).flatten()
        })
        .collect();

    // Transitive acquisition sets: everything a call to `f` may lock.
    let mut acquired: Vec<BTreeSet<String>> =
        acqs.iter().map(|list| list.iter().map(|a| a.ident.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for i in 0..model.fns.len() {
            let mut grown = acquired[i].clone();
            for call in &model.fns[i].calls {
                for &j in &call.targets {
                    grown.extend(acquired[j].iter().cloned());
                }
            }
            if grown.len() != acquired[i].len() {
                acquired[i] = grown;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for (fi, fn_acqs) in acqs.iter().enumerate() {
        let f = model.fns[fi].clone();
        if f.span.body.is_empty() {
            continue;
        }
        cx.scan_fn(fi, &f, fn_acqs, &acquired, &getter_ident);
    }
    cx.lock_order_cycles();
    cx.stale_entries();
    let LockCx { diags, required, .. } = cx;
    (diags, required)
}

/// Hotpath-style guard-getter detection: a tiny fn whose root statement
/// is the lock chain itself (returned, not `let`-bound).
fn is_guard_getter(ws: &Workspace, f: &FnInfo) -> bool {
    if !f.direct.contains(EffectSet::LOCK) || f.span.body.is_empty() {
        return false;
    }
    let toks = &ws.files[f.file].tokens;
    let cfg = build_cfg(toks, f.span.body.clone());
    let all: Vec<_> = cfg.blocks.iter().flat_map(|b| &b.stmts).collect();
    all.len() <= 2
        && all
            .iter()
            .any(|s| lock_chain_at_root(toks, &s.tokens) && !toks[s.tokens.start].is_ident("let"))
}

/// Whether the root expression of `stmt` (past `let NAME =` if present)
/// contains a `.lock(`-family chain at nesting depth 0.
fn lock_chain_at_root(toks: &[Token], stmt: &std::ops::Range<usize>) -> bool {
    let start = after_eq(toks, stmt).unwrap_or(stmt.start);
    root_positions(toks, start, stmt.end).into_iter().any(|i| {
        i + 2 < stmt.end
            && toks[i].is_punct(".")
            && LOCK_OPS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].is_punct("(")
    })
}

/// Token positions in `[start, end)` at nesting depth 0.
fn root_positions(toks: &[Token], start: usize, end: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for (i, tok) in toks.iter().enumerate().take(end).skip(start) {
        match tok.text.as_str() {
            "(" | "[" | "{" => {
                if depth == 0 {
                    out.push(i);
                }
                depth += 1;
            }
            ")" | "]" | "}" => depth -= 1,
            _ => {
                if depth == 0 {
                    out.push(i);
                }
            }
        }
    }
    out
}

/// Position just past the first top-level `=` of `stmt`, if any.
fn after_eq(toks: &[Token], stmt: &std::ops::Range<usize>) -> Option<usize> {
    let mut depth = 0i32;
    for i in stmt.clone() {
        match toks[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth == 0 => return Some(i + 1),
            _ => {}
        }
    }
    None
}

/// If `stmt` is `let [mut] name = …`, returns `name`. Uppercase-initial
/// "names" are pattern destructures (`let Some(t0) = *slot.lock()…`):
/// the guard is a statement-scoped temporary there, so they don't bind.
fn binding_name(toks: &[Token], stmt: &std::ops::Range<usize>) -> Option<String> {
    let mut it = stmt.clone();
    let first = it.next()?;
    if !toks[first].is_ident("let") {
        return None;
    }
    let mut name = None;
    for i in it {
        if toks[i].is_ident("mut") {
            continue;
        }
        if toks[i].kind == TokKind::Ident {
            name = Some(toks[i].text.clone());
        }
        break;
    }
    let name = name?;
    if name == "_" || name.starts_with(|c: char| c.is_ascii_uppercase()) {
        return None;
    }
    Some(name)
}

/// Finds `drop(NAME)` in `[from, to)`, returning its token position.
fn find_drop(toks: &[Token], from: usize, to: usize, name: &str) -> Option<usize> {
    (from..to.saturating_sub(2)).find(|&i| {
        toks[i].is_ident("drop") && toks[i + 1].is_punct("(") && toks[i + 2].is_ident(name)
    })
}

/// Shared lint-pass state for the lock lints.
struct LockCx<'a> {
    ws: &'a Workspace,
    model: &'a EffectModel,
    just: &'a Justifications,
    diags: Vec<Diagnostic>,
    required: Vec<Justification>,
    used: BTreeSet<usize>,
    /// Acquisition-order edges `A→B` with first-seen provenance
    /// `(fn index, line)`.
    edges: BTreeMap<(String, String), (usize, usize)>,
}

impl LockCx<'_> {
    fn file_rel(&self, f: &FnInfo) -> String {
        self.ws.files[f.file].rel.clone()
    }

    /// Records a required ledger entry (deduplicated), returning whether
    /// the current ledger already covers it. A covering entry whose
    /// reason is still the [`STUB_REASON`] placeholder is flagged as a
    /// hard finding: a stub is scaffolding, not a justification.
    fn require(&mut self, lint: &str, f: &FnInfo, source: &str) -> bool {
        let func = f.qualified();
        let covered = self.just.covers(lint, &f.crate_name, &func, source);
        if let Some(i) = covered {
            self.used.insert(i);
            if self.just.entries[i].reason == STUB_REASON {
                let line = f.span.line;
                self.diag(
                    "stub-justification",
                    f,
                    line,
                    format!(
                        "ledger entry `{lint} {} {func} {source}` still carries the \
                         `--update-justify` stub reason; write a real justification",
                        f.crate_name
                    ),
                );
            }
        }
        let entry = match covered {
            Some(i) => self.just.entries[i].clone(),
            None => Justification {
                lint: lint.to_string(),
                krate: f.crate_name.clone(),
                func,
                source: source.to_string(),
                tag: None,
                reason: STUB_REASON.to_string(),
            },
        };
        if !self.required.contains(&entry) {
            self.required.push(entry);
        }
        covered.is_some()
    }

    fn diag(&mut self, lint: &'static str, f: &FnInfo, line: usize, message: String) {
        self.diags.push(Diagnostic {
            file: self.file_rel(f),
            line,
            lint,
            message,
            severity: Severity::Error,
        });
    }

    /// Relates a live guard of `held` to a later acquisition of `other`:
    /// same identity is a double-lock, different identities an order edge.
    fn relate(&mut self, f: &FnInfo, held: &str, other: &str, line: usize, fi: usize, via: &str) {
        if held == other {
            if !self.require("double-lock", f, held) {
                self.diag(
                    "double-lock",
                    f,
                    line,
                    format!(
                        "`{}` re-acquires `{held}` {via} while a guard of it is still live",
                        f.qualified()
                    ),
                );
            }
        } else {
            self.edges.entry((held.to_string(), other.to_string())).or_insert((fi, line));
        }
    }

    /// Scans one function: same-statement acquisition pairs, and — for
    /// `let`-bound guards — every acquisition or lock-acquiring call in
    /// the guard's CFG-live region (cut at `drop(guard)`).
    fn scan_fn(
        &mut self,
        fi: usize,
        f: &FnInfo,
        acqs: &[Acq],
        acquired: &[BTreeSet<String>],
        getter_ident: &[Option<String>],
    ) {
        let toks = self.ws.files[f.file].tokens.clone();
        let toks = &toks[..];
        let cfg = build_cfg(toks, f.span.body.clone());

        // Acquisitions including getter calls (the call acquires the
        // getter's lock and hands the guard to this fn).
        let mut all_acqs: Vec<Acq> = acqs.to_vec();
        for call in &f.calls {
            if let Some(ident) = call.targets.iter().find_map(|&j| getter_ident[j].clone()) {
                all_acqs.push(Acq { ident, line: call.line, tok: call.tok });
            }
        }
        all_acqs.sort_by_key(|a| a.tok);
        if all_acqs.is_empty() {
            // No acquisition in this fn means no guard is ever held here,
            // so no ordering edges can originate from it.
            self.guard_escape(f, toks, &cfg, &[]);
            return;
        }

        // Same-statement ordering: a guard temporary lives to the end of
        // its statement, so every later acquisition / lock-acquiring
        // call in the *same* statement happens under it — unless a `;`
        // separates the two sites. The CFG swallows closure and block
        // bodies into the enclosing flat statement, and a `;` between
        // two sites means the first one's sub-statement (and with it the
        // temporary) has already ended. The cost is that `let`-bound
        // guards *inside* swallowed closures get no cross-statement
        // liveness tracking; the threaded tests under TSan cover those
        // dynamically.
        let stmts: Vec<std::ops::Range<usize>> =
            cfg.blocks.iter().flat_map(|b| b.stmts.iter().map(|s| s.tokens.clone())).collect();
        let semi_between =
            |a: usize, b: usize| -> bool { toks[a..b].iter().any(|t| t.is_punct(";")) };
        for (k, a) in all_acqs.iter().enumerate() {
            let Some(stmt) = stmts.iter().find(|r| r.contains(&a.tok)) else { continue };
            for b in &all_acqs[k + 1..] {
                if !stmt.contains(&b.tok) || semi_between(a.tok, b.tok) {
                    continue;
                }
                let (h, o, line) = (a.ident.clone(), b.ident.clone(), b.line);
                self.relate(f, &h, &o, line, fi, "in the same statement");
            }
            for call in &f.calls {
                if !stmt.contains(&call.tok) || call.tok <= a.tok || semi_between(a.tok, call.tok) {
                    continue;
                }
                if call.targets.iter().any(|&j| getter_ident[j].is_some()) {
                    continue; // already counted as an acquisition
                }
                let held = a.ident.clone();
                let others: Vec<String> =
                    call.targets.iter().flat_map(|&j| acquired[j].iter().cloned()).collect();
                let (name, line) = (call.name.clone(), call.line);
                for o in others {
                    self.relate(f, &held, &o, line, fi, &format!("via call to `{name}`"));
                }
            }
        }

        for (bi, block) in cfg.blocks.iter().enumerate() {
            for (si, stmt) in block.stmts.iter().enumerate() {
                // `let`-bound guards: CFG liveness across statements.
                let Some(guard) = binding_name(toks, &stmt.tokens) else { continue };
                let bound: Vec<&Acq> = all_acqs
                    .iter()
                    .filter(|a| {
                        if !stmt.tokens.contains(&a.tok) {
                            return false;
                        }
                        let start = after_eq(toks, &stmt.tokens).unwrap_or(stmt.tokens.start);
                        // The op ident sits at depth 0 of the root chain;
                        // getter-call acquisitions likewise.
                        root_positions(toks, start, stmt.tokens.end).contains(&a.tok)
                    })
                    .collect();
                let Some(acq) = bound.first() else { continue };
                let held = acq.ident.clone();
                let drop_pos = find_drop(toks, stmt.tokens.end, f.span.body.end, &guard);
                let mut live: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
                for s in &block.stmts[si + 1..] {
                    live.push((s.line, s.tokens.clone()));
                }
                let mut marked = vec![false; cfg.blocks.len()];
                for &succ in &block.succs {
                    for (j, r) in cfg.reachable_from(succ).iter().enumerate() {
                        marked[j] |= r;
                    }
                }
                for (j, b) in cfg.blocks.iter().enumerate() {
                    if marked[j] && j != bi {
                        for s in &b.stmts {
                            live.push((s.line, s.tokens.clone()));
                        }
                    }
                }
                for (line, range) in live {
                    if range.start <= stmt.tokens.start {
                        continue; // loop back-edges into earlier statements
                    }
                    if drop_pos.is_some_and(|d| range.start >= d) {
                        continue;
                    }
                    for a in &all_acqs {
                        if range.contains(&a.tok) {
                            let (o, l) = (a.ident.clone(), a.line);
                            self.relate(f, &held, &o, l, fi, "on a live-guard path");
                        }
                    }
                    for call in &f.calls {
                        if !range.contains(&call.tok) {
                            continue;
                        }
                        if call.targets.iter().any(|&j| getter_ident[j].is_some()) {
                            continue;
                        }
                        let others: Vec<String> = call
                            .targets
                            .iter()
                            .flat_map(|&j| acquired[j].iter().cloned())
                            .collect();
                        let (name, cline) = (call.name.clone(), call.line);
                        for o in others {
                            self.relate(f, &held, &o, cline, fi, &format!("via call to `{name}`"));
                        }
                    }
                    let _ = line;
                }
            }
        }
        self.guard_escape(f, toks, &cfg, &all_acqs);
    }

    /// `guard-escapes-hot-path`: a hot-path fn whose tail expression or
    /// `return` statement is a lock chain / bound guard, or that assigns
    /// a lock chain into a pre-existing place.
    fn guard_escape(&mut self, f: &FnInfo, toks: &[Token], cfg: &crate::cfg::Cfg, acqs: &[Acq]) {
        if !f.hot_path {
            return;
        }
        let mut guards: BTreeSet<String> = BTreeSet::new();
        let mut stmts: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        for block in &cfg.blocks {
            for stmt in &block.stmts {
                stmts.push((stmt.line, stmt.tokens.clone()));
                if binding_name(toks, &stmt.tokens).is_some()
                    && lock_chain_at_root(toks, &stmt.tokens)
                {
                    if let Some(name) = binding_name(toks, &stmt.tokens) {
                        guards.insert(name);
                    }
                }
            }
        }
        let last_end = stmts.iter().map(|(_, r)| r.end).max().unwrap_or(0);
        for (line, range) in &stmts {
            let is_return = toks[range.start].is_ident("return");
            let is_tail = range.end >= last_end
                && range.end >= f.span.body.end.saturating_sub(1)
                && !toks[range.end.saturating_sub(1)].is_punct(";");
            let is_let = toks[range.start].is_ident("let");
            // A chain escapes via `return`, a tail expression, or a
            // non-`let` assignment (`*out = x.lock()…`).
            let escapes_chain = !is_let
                && (is_return || is_tail || after_eq(toks, range).is_some())
                && lock_chain_at_root(toks, range);
            let escapes_guard = (is_return || is_tail)
                && !is_let
                && root_positions(toks, range.start, range.end)
                    .iter()
                    .any(|&i| guards.contains(&toks[i].text));
            if !escapes_chain && !escapes_guard {
                continue;
            }
            let source = if escapes_chain {
                acqs.iter()
                    .find(|a| range.contains(&a.tok))
                    .map_or_else(|| "return".to_string(), |a| a.ident.clone())
            } else {
                root_positions(toks, range.start, range.end)
                    .iter()
                    .find(|&&i| guards.contains(&toks[i].text))
                    .map_or_else(|| "return".to_string(), |&i| toks[i].text.clone())
            };
            if !self.require("guard-escapes-hot-path", f, &source) {
                self.diag(
                    "guard-escapes-hot-path",
                    f,
                    *line,
                    format!(
                        "`{}` is an audit:hot-path fn but lets a lock guard escape (`{source}`)",
                        f.qualified()
                    ),
                );
            }
        }
    }

    /// `lock-order-cycle`: every edge that sits on a cycle in the
    /// acquisition-order graph is a finding.
    fn lock_order_cycles(&mut self) {
        let mut adj: BTreeMap<&String, BTreeSet<&String>> = BTreeMap::new();
        for (a, b) in self.edges.keys() {
            adj.entry(a).or_default().insert(b);
        }
        let cyclic: Vec<(String, String, usize, usize)> = self
            .edges
            .iter()
            .filter(|((a, b), _)| reaches(&adj, b, a))
            .map(|((a, b), &(fi, line))| (a.clone(), b.clone(), fi, line))
            .collect();
        for (a, b, fi, line) in cyclic {
            let f = self.model.fns[fi].clone();
            let source = format!("{a}->{b}");
            if !self.require("lock-order-cycle", &f, &source) {
                self.diag(
                    "lock-order-cycle",
                    &f,
                    line,
                    format!(
                        "acquisition order `{a}` then `{b}` completes a cycle — another call path takes them in the opposite order (potential deadlock)"
                    ),
                );
            }
        }
    }

    /// Ledger entries for lock lints that no finding required are stale.
    fn stale_entries(&mut self) {
        for (i, e) in self.just.entries.iter().enumerate() {
            if !LOCK_LINTS.iter().any(|(l, _)| *l == e.lint) {
                continue; // other family (atomics) — not ours to judge
            }
            if !self.used.contains(&i) {
                self.diags.push(Diagnostic {
                    file: CONCURRENCY_LEDGER.to_string(),
                    line: 0,
                    lint: "double-lock",
                    message: format!(
                        "stale ledger entry `{}` — no current finding requires it",
                        e.render()
                    ),
                    severity: Severity::Error,
                });
            }
        }
    }
}

/// BFS reachability from `from` to `to` over the order graph.
fn reaches(adj: &BTreeMap<&String, BTreeSet<&String>>, from: &String, to: &String) -> bool {
    let mut seen: BTreeSet<&String> = BTreeSet::new();
    let mut queue: Vec<&String> = vec![from];
    while let Some(n) = queue.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            queue.extend(next.iter().copied());
        }
    }
    false
}
