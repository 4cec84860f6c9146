//! A type-aware, still dependency-free call graph over the workspace.
//!
//! PR 4's graph resolved calls by *name* alone, which left every
//! trait-dispatched call (`dyn Trait`, generic `P: Trait`) a hole in the
//! hot-path walk. This version builds an impl index (trait → impl blocks →
//! method bodies) plus local receiver-type inference, and resolves method
//! calls in three tiers:
//!
//! 1. **Typed**: the receiver chain (`self.field[i].lock()`) is evaluated
//!    against struct field types, `let` bindings, parameter types and
//!    workspace return types. A concrete receiver resolves to exactly its
//!    type's method; a trait-typed receiver (`dyn Trait`, a generic bound,
//!    or a `Trait::method` path) fans out to **every** impl of that method
//!    plus the trait's default body — the edge records which
//!    `trait::method → impl` dispatch it took, and diagnostics print it.
//! 2. **Name fallback**: when inference fails, a call `foo(...)`/`.foo(...)`
//!    resolves to workspace functions *named* `foo` — preferring the
//!    caller's crate, falling back cross-crate only when unambiguous.
//! 3. **Ubiquitous names** (`new`, `push`, `iter`, …) never resolve through
//!    the name fallback — one false edge through `new` would merge the
//!    whole workspace into the hot set — but they *do* resolve through the
//!    typed tier, so `queues.push(m)` on a workspace queue type is walked.
//!
//! The graph still over-approximates reachability where types are unknown,
//! which is the right bias for a lint: extra edges can only produce extra
//! findings, which an explicit allow-marker then documents.

use crate::model::{base_name, FileModel, FnOwner};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A function's global index: `(file index, fn index within file)`.
pub type FnRef = (usize, usize);

/// `reached[f] = Some((caller, edge_label))` for every function reached
/// from the roots; the label is present on trait-dispatch edges and names
/// the `trait::method → impl` resolution taken.
pub type ReachMap = BTreeMap<FnRef, Option<(FnRef, Option<String>)>>;

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "as", "in", "move", "unsafe", "ref",
    "mut", "await", "else", "impl", "use", "pub", "where", "let", "enum", "struct", "trait",
    "type", "const", "static", "break", "continue", "crate", "self", "Self", "super", "dyn",
    "true", "false", "Some", "Ok", "Err", "None",
];

/// Names so common in Rust (std trait methods, constructors, iterator
/// adapters) that matching them by name carries no signal: a call to
/// `.iter()` is almost never the workspace function named `iter`, and one
/// false edge through `new` merges the whole workspace into the hot set.
/// Calls to these are never resolved through the *name* fallback; the
/// typed tier resolves them when the receiver type is known.
const UBIQUITOUS_NAMES: &[&str] = &[
    "new",
    "drop",
    "default",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "chain",
    "next",
    "len",
    "is_empty",
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_front",
    "pop_back",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "fmt",
    "from",
    "into",
    "map",
    "filter",
    "fold",
    "collect",
    "extend",
    "clear",
    "drain",
    "as_ref",
    "as_mut",
    "to_string",
    "write",
    "read",
    "min",
    "max",
    "sum",
    "eq",
    "cmp",
    "partial_cmp",
    "hash",
    "index",
    "rev",
    "take",
    "skip",
    "zip",
    "count",
    "last",
    "first",
    "sort",
    "sort_by",
    "retain",
    "split",
    "join",
    "find",
    "position",
    "any",
    "all",
    "enumerate",
    "flatten",
    "flat_map",
    "unwrap_or",
    "and_then",
    "ok_or",
    "entry",
    "keys",
    "values",
    "reserve",
    "resize",
    "truncate",
    "swap",
    "replace",
    "with_capacity",
];

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

// ---------------------------------------------------------------------
// Call-site extraction
// ---------------------------------------------------------------------

/// One segment of a receiver chain, leftmost first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seg {
    /// `self` at the root of the chain.
    SelfRoot,
    /// A plain identifier root (parameter or local binding).
    Ident(String),
    /// A `Type::`-rooted chain (`Queue::new().head()`); also carries bare
    /// static calls `Type::method(..)`.
    PathRoot(String),
    /// A free-function root inside a `let` initializer (`make_queue().x`).
    CallRoot(String),
    /// `.field` access.
    Field(String),
    /// `[..]` index access.
    Index,
    /// `.method(..)` call mid-chain.
    Call(String),
}

/// One call site found in a body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called identifier.
    pub name: String,
    /// `None` for free calls `foo(..)`; `Some(chain)` for method/path
    /// calls — an empty chain means the receiver could not be parsed.
    pub recv: Option<Vec<Seg>>,
}

/// Find the `[` matching the `]` at `close` (scanning left). Returns its
/// index, or `None` when unbalanced.
fn open_bracket_before(bytes: &[u8], close: usize, open: u8, shut: u8) -> Option<usize> {
    let mut depth = 0i32;
    let mut p = close;
    loop {
        if bytes[p] == shut {
            depth += 1;
        } else if bytes[p] == open {
            depth -= 1;
            if depth == 0 {
                return Some(p);
            }
        }
        if p == 0 {
            return None;
        }
        p -= 1;
    }
}

/// Read the identifier ending at `end` (exclusive); returns its start.
fn ident_start_before(bytes: &[u8], end: usize) -> usize {
    let mut s = end;
    while s > 0 && is_ident(bytes[s - 1]) {
        s -= 1;
    }
    s
}

/// Parse the receiver chain of a method call whose name starts at
/// `ident_start` in `body`. Returns `None` for a free call, `Some(chain)`
/// otherwise (empty = unparseable receiver).
fn recv_of(body: &str, ident_start: usize) -> Option<Vec<Seg>> {
    let bytes = body.as_bytes();
    let mut k = ident_start;
    while k > 0 && bytes[k - 1].is_ascii_whitespace() {
        k -= 1;
    }
    if k >= 2 && &body[k - 2..k] == "::" {
        let end = k - 2;
        let s = ident_start_before(bytes, end);
        if s == end {
            return Some(Vec::new()); // turbofish or `<T>::f` — unknown
        }
        return Some(vec![Seg::PathRoot(body[s..end].to_string())]);
    }
    if k == 0 || bytes[k - 1] != b'.' {
        return None; // free call
    }
    let mut segs: Vec<Seg> = Vec::new();
    let mut cur = k - 1; // bytes[cur] == '.', elements end here
    loop {
        let mut e = cur;
        // Trailing index brackets of this element.
        while e > 0 && bytes[e - 1] == b']' {
            let Some(p) = open_bracket_before(bytes, e - 1, b'[', b']') else {
                return Some(Vec::new());
            };
            segs.push(Seg::Index);
            e = p;
        }
        if e > 0 && bytes[e - 1] == b')' {
            // `..method(..)` or `Type::call(..)` or `free_call(..)`.
            let Some(p) = open_bracket_before(bytes, e - 1, b'(', b')') else {
                return Some(Vec::new());
            };
            let s = ident_start_before(bytes, p);
            if s == p {
                return Some(Vec::new()); // closure or parenthesised expr
            }
            let name = body[s..p].to_string();
            if s >= 2 && &body[s - 2..s] == "::" {
                let e2 = s - 2;
                let s2 = ident_start_before(bytes, e2);
                if s2 == e2 {
                    return Some(Vec::new());
                }
                segs.push(Seg::Call(name));
                segs.push(Seg::PathRoot(body[s2..e2].to_string()));
                segs.reverse();
                return Some(segs);
            }
            if s > 0 && bytes[s - 1] == b'.' {
                segs.push(Seg::Call(name));
                cur = s - 1;
                continue;
            }
            // A free-call root `helper().x()`: the root type is the
            // call's return type; the edge to `helper` itself is found
            // when the scanner reaches its own call site.
            segs.push(Seg::CallRoot(name));
            segs.reverse();
            return Some(segs);
        }
        // Plain identifier element.
        let s = ident_start_before(bytes, e);
        if s == e {
            return Some(Vec::new()); // literal, `?`, parenthesised, …
        }
        let name = &body[s..e];
        if s > 0 && bytes[s - 1] == b'.' {
            segs.push(Seg::Field(name.to_string()));
            cur = s - 1;
            continue;
        }
        segs.push(if name == "self" {
            Seg::SelfRoot
        } else {
            Seg::Ident(name.to_string())
        });
        segs.reverse();
        return Some(segs);
    }
}

/// Extract every call site (`name(`, `.name(`, `Type::name(`) from a body.
pub fn call_sites(body: &str) -> Vec<CallSite> {
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            let mut j = i;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'(' {
                let name = &body[start..i];
                if !KEYWORDS.contains(&name) {
                    out.push(CallSite {
                        name: name.to_string(),
                        recv: recv_of(body, start),
                    });
                }
            }
            continue;
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------
// Type text manipulation
// ---------------------------------------------------------------------

/// Containers whose `Deref` makes method/index access transparent.
const DEREF_WRAPPERS: &[&str] = &["Box", "Rc", "Arc"];

/// The first top-level generic argument of `Outer<A, B>` → `A`.
fn generic_arg(ty: &str) -> Option<&str> {
    let open = ty.find('<')?;
    let bytes = ty.as_bytes();
    let mut depth = 0i32;
    let mut j = open;
    let mut close = None;
    while j < bytes.len() {
        match bytes[j] {
            b'<' => depth += 1,
            b'>' if j > 0 && bytes[j - 1] == b'-' => {}
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let inner = &ty[open + 1..close?];
    // First top-level comma.
    let mut depth = 0i32;
    for (idx, b) in inner.bytes().enumerate() {
        match b {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' | b')' | b']' => depth -= 1,
            b',' if depth == 0 => return Some(inner[..idx].trim()),
            _ => {}
        }
    }
    Some(inner.trim())
}

/// Strip leading `&`/`mut`/lifetimes from a type text.
fn strip_refs(ty: &str) -> &str {
    let mut s = ty.trim();
    loop {
        let t = s.trim_start_matches('&').trim_start();
        let t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
        let t = if let Some(rest) = t.strip_prefix('\'') {
            rest.trim_start_matches(|c: char| c.is_alphanumeric() || c == '_')
                .trim_start()
        } else {
            t
        };
        if t == s {
            return s;
        }
        s = t;
    }
}

/// The shape of a type text, after stripping refs and deref-transparent
/// wrappers.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    /// A named type with its full text preserved (for generic args).
    Named {
        base: String,
        text: String,
    },
    /// `dyn Trait` / `impl Trait`.
    DynTrait(String),
    /// `[T]` / `[T; N]`.
    Slice(String),
    Unknown,
}

fn shape_of(ty: &str) -> Shape {
    let mut s = strip_refs(ty).to_string();
    loop {
        if let Some(rest) = s.strip_prefix("dyn ") {
            return Shape::DynTrait(base_name(rest));
        }
        if let Some(rest) = s.strip_prefix("impl ") {
            return Shape::DynTrait(base_name(rest.split('+').next().unwrap_or(rest)));
        }
        if let Some(tail) = s.strip_prefix('[') {
            let inner = tail.rsplit_once(']').map(|(a, _)| a).unwrap_or(tail);
            let elem = inner.split(';').next().unwrap_or(inner).trim();
            return Shape::Slice(elem.to_string());
        }
        let base = base_name(&s);
        if base.is_empty() {
            return Shape::Unknown;
        }
        if DEREF_WRAPPERS.contains(&base.as_str()) {
            match generic_arg(&s) {
                Some(inner) => {
                    s = strip_refs(inner).to_string();
                    continue;
                }
                None => return Shape::Unknown,
            }
        }
        return Shape::Named {
            base,
            text: s.clone(),
        };
    }
}

// ---------------------------------------------------------------------
// The graph
// ---------------------------------------------------------------------

/// The typed call index over all files.
pub struct CallGraph {
    /// name → definitions carrying that name (name-fallback tier).
    by_name: BTreeMap<String, Vec<FnRef>>,
    /// `(type base, method)` → definitions (inherent and trait impls).
    methods: BTreeMap<(String, String), Vec<FnRef>>,
    /// `(trait, method)` → `(impl self type, def)` for every trait impl.
    trait_impls: BTreeMap<(String, String), Vec<(String, FnRef)>>,
    /// `(trait, method)` → default body in the trait block.
    trait_defaults: BTreeMap<(String, String), FnRef>,
    /// Every trait name in the workspace.
    trait_names: BTreeSet<String>,
    /// struct base name → `(file, struct index)` definitions.
    structs: BTreeMap<String, Vec<(usize, usize)>>,
}

impl CallGraph {
    /// Index every non-test function, impl, trait and struct in `files`.
    pub fn build(files: &[FileModel]) -> CallGraph {
        let mut by_name: BTreeMap<String, Vec<FnRef>> = BTreeMap::new();
        let mut methods: BTreeMap<(String, String), Vec<FnRef>> = BTreeMap::new();
        let mut trait_impls: BTreeMap<(String, String), Vec<(String, FnRef)>> = BTreeMap::new();
        let mut trait_defaults: BTreeMap<(String, String), FnRef> = BTreeMap::new();
        let mut trait_names: BTreeSet<String> = BTreeSet::new();
        let mut structs: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for t in &f.traits {
                trait_names.insert(t.name.clone());
            }
            for (si, s) in f.structs.iter().enumerate() {
                structs.entry(s.name.clone()).or_default().push((fi, si));
            }
            for (gi, g) in f.fns.iter().enumerate() {
                if g.is_test {
                    continue;
                }
                by_name.entry(g.name.clone()).or_default().push((fi, gi));
                match g.owner {
                    FnOwner::Impl(ii) => {
                        let im = &f.impls[ii];
                        methods
                            .entry((im.self_type.clone(), g.name.clone()))
                            .or_default()
                            .push((fi, gi));
                        if let Some(tr) = &im.trait_name {
                            trait_impls
                                .entry((tr.clone(), g.name.clone()))
                                .or_default()
                                .push((im.self_type.clone(), (fi, gi)));
                        }
                    }
                    FnOwner::Trait(ti) => {
                        let tr = &f.traits[ti];
                        trait_defaults.insert((tr.name.clone(), g.name.clone()), (fi, gi));
                    }
                    FnOwner::Free => {}
                }
            }
        }
        CallGraph {
            by_name,
            methods,
            trait_impls,
            trait_defaults,
            trait_names,
            structs,
        }
    }

    /// Name-fallback resolution (the PR 4 tier): caller's crate first,
    /// cross-crate only when unambiguous; ubiquitous names never resolve.
    fn resolve_by_name(&self, files: &[FileModel], crate_name: &str, name: &str) -> Vec<FnRef> {
        if UBIQUITOUS_NAMES.contains(&name) {
            return Vec::new();
        }
        let Some(defs) = self.by_name.get(name) else {
            return Vec::new();
        };
        let local: Vec<FnRef> = defs
            .iter()
            .copied()
            .filter(|&(fi, _)| files[fi].crate_name == crate_name)
            .collect();
        if !local.is_empty() {
            return local;
        }
        let crates: BTreeSet<&str> = defs
            .iter()
            .map(|&(fi, _)| files[fi].crate_name.as_str())
            .collect();
        if crates.len() == 1 {
            defs.clone()
        } else {
            Vec::new()
        }
    }

    /// Find the struct definition for `base`, preferring the caller's
    /// crate, falling back to a workspace-unique definition.
    fn struct_def<'a>(
        &self,
        files: &'a [FileModel],
        crate_name: &str,
        base: &str,
    ) -> Option<&'a crate::model::StructDef> {
        let defs = self.structs.get(base)?;
        let local = defs
            .iter()
            .find(|&&(fi, _)| files[fi].crate_name == crate_name);
        let &(fi, si) = local.or(if defs.len() == 1 { defs.first() } else { None })?;
        Some(&files[fi].structs[si])
    }

    /// The generic bound for `name` visible from `caller`: fn generics
    /// first, then the owning impl block's.
    fn generic_bound(&self, files: &[FileModel], caller: FnRef, name: &str) -> Option<String> {
        let f = &files[caller.0];
        let g = &f.fns[caller.1];
        for (p, b) in &g.generics {
            if p == name {
                return b.clone();
            }
        }
        if let FnOwner::Impl(ii) = g.owner {
            for (p, b) in &f.impls[ii].generics {
                if p == name {
                    return b.clone();
                }
            }
        }
        None
    }

    /// The caller's `Self` type text: the impl's self type, or
    /// `dyn Trait` inside a trait default body.
    fn self_type_of(&self, files: &[FileModel], caller: FnRef) -> Option<String> {
        let f = &files[caller.0];
        match f.fns[caller.1].owner {
            FnOwner::Impl(ii) => Some(f.impls[ii].self_type.clone()),
            FnOwner::Trait(ti) => Some(format!("dyn {}", f.traits[ti].name)),
            FnOwner::Free => None,
        }
    }

    /// Apply one chain segment to a type text. `None` = inference lost.
    fn step(&self, files: &[FileModel], caller: FnRef, ty: String, seg: &Seg) -> Option<String> {
        let crate_name = &files[caller.0].crate_name;
        // Generic parameters become their trait bound before any step.
        let ty = match shape_of(&ty) {
            Shape::Named { base, text } => match self.generic_bound(files, caller, &base) {
                Some(tr) => format!("dyn {tr}"),
                None => text,
            },
            Shape::DynTrait(tr) => format!("dyn {tr}"),
            Shape::Slice(e) => format!("[{e}]"),
            Shape::Unknown => return None,
        };
        match seg {
            Seg::Field(fname) => {
                let Shape::Named { base, .. } = shape_of(&ty) else {
                    return None;
                };
                let sd = self.struct_def(files, crate_name, &base)?;
                let fty = sd
                    .fields
                    .iter()
                    .find(|(n, _)| n == fname)
                    .map(|(_, t)| t.clone())?;
                // Substitute the struct's own generic params.
                let fbase = base_name(&fty);
                for (p, b) in &sd.generics {
                    if *p == fbase {
                        return b.as_ref().map(|tr| format!("dyn {tr}"));
                    }
                }
                Some(fty)
            }
            Seg::Index => match shape_of(&ty) {
                Shape::Slice(e) => Some(e),
                Shape::Named { base, text } if base == "Vec" || base == "VecDeque" => {
                    generic_arg(&text).map(|s| s.to_string())
                }
                _ => None,
            },
            Seg::Call(m) => self.call_result(files, caller, &ty, m),
            // Roots are handled by eval_chain; mid-chain roots are a parse
            // bug — drop inference rather than guess.
            _ => None,
        }
    }

    /// The result type of `.m()` on receiver type `ty`: std unwrapping
    /// special cases, then workspace return types.
    fn call_result(
        &self,
        files: &[FileModel],
        _caller: FnRef,
        ty: &str,
        m: &str,
    ) -> Option<String> {
        match shape_of(ty) {
            Shape::Named { base, text } => {
                match (base.as_str(), m) {
                    ("Mutex" | "RwLock", "lock" | "read" | "write")
                    | ("RefCell", "borrow" | "borrow_mut") => {
                        return generic_arg(&text).map(|s| s.to_string());
                    }
                    ("Option" | "Result", "unwrap" | "expect" | "unwrap_or_default") => {
                        return generic_arg(&text).map(|s| s.to_string());
                    }
                    (_, "unwrap" | "expect" | "as_ref" | "as_mut" | "clone") => {
                        // Not an Option/Result: `.lock().expect(..)` has
                        // already unwrapped — identity.
                        return Some(text);
                    }
                    ("Vec" | "VecDeque", "pop" | "pop_front" | "pop_back") => {
                        return generic_arg(&text).map(|s| format!("Option<{s}>"));
                    }
                    (
                        "Vec" | "VecDeque",
                        "front" | "back" | "first" | "last" | "get" | "get_mut",
                    ) => {
                        return generic_arg(&text).map(|s| format!("Option<{s}>"));
                    }
                    _ => {}
                }
                // Workspace method: unique return type wins.
                let defs = self.methods.get(&(base.clone(), m.to_string()))?;
                let rets: BTreeSet<String> = defs
                    .iter()
                    .map(|&(fi, gi)| {
                        files[fi].fns[gi]
                            .ret
                            .clone()
                            .unwrap_or_default()
                            .replace("Self", &base)
                    })
                    .collect();
                if rets.len() == 1 {
                    let r = rets.into_iter().next().filter(|r| !r.is_empty())?;
                    // A generic return type of the *callee* is opaque here.
                    let rbase = base_name(&r);
                    let callee = defs[0];
                    if self.generic_bound(files, callee, &rbase).is_some() {
                        return self
                            .generic_bound(files, callee, &rbase)
                            .map(|tr| format!("dyn {tr}"));
                    }
                    Some(r)
                } else {
                    None
                }
            }
            Shape::Slice(e) => match m {
                "first" | "last" | "get" | "get_mut" => Some(format!("Option<{e}>")),
                _ => None,
            },
            _ => None,
        }
    }

    /// Evaluate a receiver chain to a type text, or `None`.
    fn eval_chain(
        &self,
        files: &[FileModel],
        caller: FnRef,
        env: &BTreeMap<String, String>,
        segs: &[Seg],
    ) -> Option<String> {
        let mut iter = segs.iter();
        let root = iter.next()?;
        let mut ty = match root {
            Seg::SelfRoot => self.self_type_of(files, caller)?,
            Seg::Ident(x) => env.get(x)?.clone(),
            Seg::PathRoot(t) => {
                if t == "Self" {
                    self.self_type_of(files, caller)?
                } else {
                    t.clone()
                }
            }
            Seg::CallRoot(name) => {
                // Return type of a workspace-unique free fn.
                let defs = self.resolve_by_name(files, &files[caller.0].crate_name, name);
                let rets: BTreeSet<String> = defs
                    .iter()
                    .filter(|&&(fi, gi)| files[fi].fns[gi].owner == FnOwner::Free)
                    .filter_map(|&(fi, gi)| files[fi].fns[gi].ret.clone())
                    .collect();
                if rets.len() == 1 {
                    rets.into_iter().next()?
                } else {
                    return None;
                }
            }
            _ => return None,
        };
        for seg in iter {
            ty = self.step(files, caller, ty, seg)?;
        }
        Some(ty)
    }

    /// Build the local type environment of one function: parameter types
    /// plus `let` bindings (explicit annotations and inferable
    /// initializer chains).
    fn build_env(&self, files: &[FileModel], caller: FnRef) -> BTreeMap<String, String> {
        let f = &files[caller.0];
        let g = &f.fns[caller.1];
        let mut env: BTreeMap<String, String> = BTreeMap::new();
        for (n, t) in &g.params {
            env.insert(n.clone(), t.clone());
        }
        let body = &f.clean[g.body.0..=g.body.1.min(f.clean.len() - 1)];
        let bytes = body.as_bytes();
        let mut from = 0usize;
        while let Some(hit) = body[from..].find("let") {
            let at = from + hit;
            from = at + 3;
            let bounded = (at == 0 || !is_ident(bytes[at - 1]))
                && bytes.get(at + 3).is_some_and(|b| b.is_ascii_whitespace());
            if !bounded {
                continue;
            }
            let mut i = at + 3;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if body[i..].starts_with("mut ") {
                i += 4;
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
            }
            let ns = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            if i == ns {
                continue; // destructuring pattern — skip
            }
            let name = body[ns..i].to_string();
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            match bytes.get(i) {
                Some(b':') if bytes.get(i + 1) != Some(&b':') => {
                    // `let x: Type = ..` / `let x: Type;`
                    let rest = &body[i + 1..];
                    let mut depth = 0i32;
                    let mut end = rest.len();
                    for (idx, b) in rest.bytes().enumerate() {
                        match b {
                            b'<' | b'(' | b'[' => depth += 1,
                            b'>' | b')' | b']' => depth -= 1,
                            b'=' | b';' if depth == 0 => {
                                end = idx;
                                break;
                            }
                            _ => {}
                        }
                    }
                    let ty = rest[..end].trim();
                    if !ty.is_empty() {
                        env.insert(name, ty.to_string());
                    }
                }
                Some(b'=') if bytes.get(i + 1) != Some(&b'=') => {
                    // `let x = <chain>` — forward-parse the initializer.
                    if let Some(segs) = parse_init_chain(&body[i + 1..]) {
                        if let Some(ty) = self.eval_chain(files, caller, &env, &segs) {
                            env.insert(name, ty);
                        }
                    }
                }
                _ => {}
            }
        }
        env
    }

    /// Typed resolution of one call site, or `None` when type inference
    /// cannot pin the receiver (callers fall back to name resolution).
    fn resolve_typed(
        &self,
        files: &[FileModel],
        caller: FnRef,
        env: &BTreeMap<String, String>,
        site: &CallSite,
    ) -> Option<Vec<(FnRef, Option<String>)>> {
        let chain = site.recv.as_ref()?;
        let ty = self.eval_chain(files, caller, env, chain)?;
        // Generic param receivers become their bound.
        let ty = match shape_of(&ty) {
            Shape::Named { base, text } => match self.generic_bound(files, caller, &base) {
                Some(tr) => format!("dyn {tr}"),
                None => text,
            },
            Shape::DynTrait(tr) => format!("dyn {tr}"),
            _ => return None,
        };
        match shape_of(&ty) {
            Shape::DynTrait(tr) => self.dispatch(&tr, &site.name),
            Shape::Named { base, .. } if self.trait_names.contains(&base) => {
                // `Trait::method(&x, ..)` UFCS call.
                self.dispatch(&base, &site.name)
            }
            Shape::Named { base, .. } => self
                .methods
                .get(&(base.clone(), site.name.clone()))
                // A known workspace type without this method (deref or
                // blanket impls) — and std types — keep the
                // over-approximating name fallback.
                .map(|defs| defs.iter().map(|&r| (r, None)).collect()),
            _ => None,
        }
    }

    /// Resolve one call site from `caller` to its targets: typed tier
    /// first, name fallback otherwise.
    fn resolve_site(
        &self,
        files: &[FileModel],
        caller: FnRef,
        env: &BTreeMap<String, String>,
        site: &CallSite,
    ) -> Vec<(FnRef, Option<String>)> {
        if let Some(targets) = self.resolve_typed(files, caller, env, site) {
            return targets;
        }
        self.resolve_by_name(files, &files[caller.0].crate_name, &site.name)
            .into_iter()
            .map(|r| (r, None))
            .collect()
    }

    /// The names of method calls in `caller` whose receiver type resolved
    /// to a *workspace* definition through the typed tier. A blocking- or
    /// panic-shaped token (`.accept(`, `.wait(`) whose call resolves here
    /// is a workspace method, not the std blocking primitive — the walk
    /// scans the callee's own body instead of flagging the call.
    pub fn workspace_method_names(&self, files: &[FileModel], caller: FnRef) -> BTreeSet<String> {
        let f = &files[caller.0];
        let g = &f.fns[caller.1];
        let body = &f.clean[g.body.0..=g.body.1.min(f.clean.len() - 1)];
        let env = self.build_env(files, caller);
        let mut out = BTreeSet::new();
        for site in call_sites(body) {
            if site.recv.is_some()
                && self
                    .resolve_typed(files, caller, &env, &site)
                    .is_some_and(|t| !t.is_empty())
            {
                out.insert(site.name);
            }
        }
        out
    }

    /// All impls (and the default body) of `trait::method`, labelled with
    /// the dispatch edge taken. `None` when the trait has no such method
    /// (a supertrait or std-trait call — let the name fallback decide).
    fn dispatch(&self, tr: &str, method: &str) -> Option<Vec<(FnRef, Option<String>)>> {
        let key = (tr.to_string(), method.to_string());
        let mut out: Vec<(FnRef, Option<String>)> = Vec::new();
        if let Some(impls) = self.trait_impls.get(&key) {
            for (ty, r) in impls {
                out.push((*r, Some(format!("dyn {tr}::{method} -> {ty}"))));
            }
        }
        if let Some(&r) = self.trait_defaults.get(&key) {
            out.push((r, Some(format!("dyn {tr}::{method} -> default body"))));
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    /// All functions reachable from the given roots, with one example
    /// caller edge per reached function for diagnostics.
    pub fn reachable(&self, files: &[FileModel], roots: &[FnRef]) -> ReachMap {
        self.reachable_pruned(files, roots, &BTreeSet::new())
    }

    /// Like [`CallGraph::reachable`], but the walk stops at (and excludes)
    /// the `pruned` functions: they count as outside the traversed region,
    /// and nothing is reached *through* them. Used for the event-path /
    /// steady-state distinction — a fault handler called from `step_slot`
    /// is reachable, but its allocations are not steady-state allocations.
    pub fn reachable_pruned(
        &self,
        files: &[FileModel],
        roots: &[FnRef],
        pruned: &BTreeSet<FnRef>,
    ) -> ReachMap {
        let mut seen: ReachMap = BTreeMap::new();
        let mut queue: VecDeque<FnRef> = VecDeque::new();
        for &r in roots {
            if pruned.contains(&r) {
                continue;
            }
            seen.entry(r).or_insert(None);
            queue.push_back(r);
        }
        while let Some((fi, gi)) = queue.pop_front() {
            let f = &files[fi];
            let g = &f.fns[gi];
            let body = &f.clean[g.body.0..=g.body.1.min(f.clean.len() - 1)];
            let env = self.build_env(files, (fi, gi));
            for site in call_sites(body) {
                for (target, label) in self.resolve_site(files, (fi, gi), &env, &site) {
                    if pruned.contains(&target) || target == (fi, gi) {
                        continue;
                    }
                    if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(target) {
                        e.insert(Some(((fi, gi), label)));
                        queue.push_back(target);
                    }
                }
            }
        }
        seen
    }
}

/// Forward-parse a `let` initializer expression into a receiver chain:
/// `self.rings[i].lock()` / `Queue::new()` / `Frame { .. }` / `other_var`.
/// Returns `None` when the expression is not a recognisable chain.
fn parse_init_chain(expr: &str) -> Option<Vec<Seg>> {
    let bytes = expr.as_bytes();
    let mut i = 0usize;
    // Leading borrows/derefs don't change the base type for our purposes.
    loop {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < bytes.len() && (bytes[i] == b'&' || bytes[i] == b'*') {
            i += 1;
            continue;
        }
        if expr[i..].starts_with("mut ") {
            i += 4;
            continue;
        }
        break;
    }
    let ns = i;
    while i < bytes.len() && is_ident(bytes[i]) {
        i += 1;
    }
    if i == ns {
        return None;
    }
    let root_name = &expr[ns..i];
    if KEYWORDS.contains(&root_name) && root_name != "self" && root_name != "Self" {
        return None;
    }
    let mut segs: Vec<Seg> = Vec::new();
    // `Type { .. }` struct literal.
    let mut j = i;
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    let starts_upper = bytes[ns].is_ascii_uppercase();
    if starts_upper && bytes.get(j) == Some(&b'{') {
        return Some(vec![Seg::PathRoot(root_name.to_string())]);
    }
    if bytes.get(j) == Some(&b'(') && root_name != "self" && !starts_upper {
        // `let q = make_queue();` — a free-call root.
        segs.push(Seg::CallRoot(root_name.to_string()));
        let mut depth = 0i32;
        let mut k = j;
        while k < bytes.len() {
            match bytes[k] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        i = k + 1;
    } else {
        segs.push(match root_name {
            "self" => Seg::SelfRoot,
            "Self" => Seg::PathRoot("Self".to_string()),
            _ if starts_upper => Seg::PathRoot(root_name.to_string()),
            _ => Seg::Ident(root_name.to_string()),
        });
    }
    // Postfix chain.
    loop {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        match bytes.get(i) {
            Some(b'.') => {
                i += 1;
                let ns = i;
                while i < bytes.len() && is_ident(bytes[i]) {
                    i += 1;
                }
                if i == ns {
                    break;
                }
                let name = expr[ns..i].to_string();
                let mut k = i;
                while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                if bytes.get(k) == Some(&b'(') {
                    // Skip the balanced argument list.
                    let mut depth = 0i32;
                    while k < bytes.len() {
                        match bytes[k] {
                            b'(' => depth += 1,
                            b')' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    i = k + 1;
                    segs.push(Seg::Call(name));
                } else {
                    segs.push(Seg::Field(name));
                }
            }
            Some(b'[') => {
                let mut depth = 0i32;
                while i < bytes.len() {
                    match bytes[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                i += 1;
                segs.push(Seg::Index);
            }
            Some(b':') if bytes.get(i + 1) == Some(&b':') => {
                i += 2;
                let ns = i;
                while i < bytes.len() && is_ident(bytes[i]) {
                    i += 1;
                }
                if i == ns {
                    break;
                }
                let name = expr[ns..i].to_string();
                let mut k = i;
                while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                if bytes.get(k) == Some(&b'(') {
                    let mut depth = 0i32;
                    while k < bytes.len() {
                        match bytes[k] {
                            b'(' => depth += 1,
                            b')' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    i = k + 1;
                    segs.push(Seg::Call(name));
                } else if bytes[ns].is_ascii_uppercase() {
                    // A deeper path: `crate::mac::CcrEdfMac::new()` — keep
                    // walking; the last uppercase ident is the type.
                    segs.pop();
                    segs.push(Seg::PathRoot(name));
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    Some(segs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(crate_name: &str, src: &str) -> FileModel {
        FileModel::parse(PathBuf::from("m.rs"), crate_name, src.to_string())
    }

    fn reach_names<'a>(files: &'a [FileModel], reach: &ReachMap) -> Vec<&'a str> {
        reach
            .keys()
            .map(|&(fi, gi)| files[fi].fns[gi].name.as_str())
            .collect()
    }

    #[test]
    fn extracts_calls() {
        let calls: BTreeSet<String> =
            call_sites("{ alpha(); x.beta(1); if gamma() { } vec.push(2) }")
                .into_iter()
                .map(|s| s.name)
                .collect();
        assert!(calls.contains("alpha"));
        assert!(calls.contains("beta"));
        assert!(calls.contains("gamma"));
        assert!(calls.contains("push"));
        assert!(!calls.contains("if"));
    }

    #[test]
    fn receivers_are_parsed() {
        let sites = call_sites("{ self.queues[qi].pop_earliest(); Frame::decode(b); free(); }");
        let pop = sites.iter().find(|s| s.name == "pop_earliest").unwrap();
        // The chain is the *receiver* only; the called method is the
        // site's `name`.
        assert_eq!(
            pop.recv.as_deref(),
            Some(&[Seg::SelfRoot, Seg::Field("queues".into()), Seg::Index][..])
        );
        let dec = sites.iter().find(|s| s.name == "decode").unwrap();
        assert_eq!(
            dec.recv.as_deref(),
            Some(&[Seg::PathRoot("Frame".into())][..])
        );
        let free = sites.iter().find(|s| s.name == "free").unwrap();
        assert!(free.recv.is_none());
    }

    #[test]
    fn walks_transitively_within_crate() {
        let files = vec![file(
            "a",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn unrelated() {}",
        )];
        let cg = CallGraph::build(&files);
        let reach = cg.reachable(&files, &[(0, 0)]);
        assert_eq!(reach_names(&files, &reach), ["root", "mid", "leaf"]);
    }

    #[test]
    fn ubiquitous_names_are_not_resolved_by_name() {
        let files = vec![file(
            "a",
            "fn root() { let q = Queue::new(); q.push(1); }\nfn new() { evil(); }\nfn push() {}\nfn evil() {}",
        )];
        let cg = CallGraph::build(&files);
        let reach = cg.reachable(&files, &[(0, 0)]);
        assert_eq!(reach.len(), 1, "only the root itself is reachable");
    }

    #[test]
    fn typed_receivers_resolve_ubiquitous_methods() {
        // `q.push(..)` resolves to the workspace Queue::push because the
        // let-initializer types q — the typed tier beats the noise filter.
        let files = vec![file(
            "a",
            "struct Queue { n: u32 }\n\
             impl Queue { fn push(&mut self, x: u32) { grow(); } }\n\
             fn mk() -> Queue { Queue { n: 0 } }\n\
             fn grow() {}\n\
             fn root() { let mut q = mk(); q.push(1); }",
        )];
        let cg = CallGraph::build(&files);
        let root = files[0].fns.iter().position(|f| f.name == "root").unwrap();
        let reach = cg.reachable(&files, &[(0, root)]);
        let names = reach_names(&files, &reach);
        assert!(
            names.contains(&"push"),
            "typed edge to Queue::push: {names:?}"
        );
        assert!(
            names.contains(&"grow"),
            "transitive through push: {names:?}"
        );
    }

    #[test]
    fn dyn_trait_calls_fan_out_to_all_impls() {
        let files = vec![file(
            "a",
            "trait Sched { fn pick(&self); fn tick(&self) { self.pick(); } }\n\
             struct A;\nstruct B;\n\
             impl Sched for A { fn pick(&self) { a_only(); } }\n\
             impl Sched for B { fn pick(&self) { b_only(); } }\n\
             struct Engine { s: Box<dyn Sched> }\n\
             impl Engine { fn run(&self) { self.s.pick(); } }\n\
             fn a_only() {}\nfn b_only() {}\nfn unrelated() {}",
        )];
        let cg = CallGraph::build(&files);
        let run = files[0].fns.iter().position(|f| f.name == "run").unwrap();
        let reach = cg.reachable(&files, &[(0, run)]);
        let names = reach_names(&files, &reach);
        assert!(names.contains(&"a_only"), "{names:?}");
        assert!(names.contains(&"b_only"), "{names:?}");
        assert!(!names.contains(&"unrelated"));
        // The dispatch edge is labelled.
        let a_pick = reach
            .iter()
            .find(|(&(fi, gi), _)| {
                files[fi].fns[gi].name == "pick"
                    && matches!(files[fi].fns[gi].owner, FnOwner::Impl(ii) if files[fi].impls[ii].self_type == "A")
            })
            .unwrap();
        let label = a_pick.1.as_ref().unwrap().1.as_deref().unwrap();
        assert_eq!(label, "dyn Sched::pick -> A");
    }

    #[test]
    fn generic_bound_field_dispatches_through_trait() {
        // The MacProtocol seam: a generic field `mac: P` with
        // `P: Mac` resolves through every impl *and* the default body.
        let files = vec![file(
            "a",
            "trait Mac { fn arb(&self) { default_alloc(); } }\n\
             struct Fast;\n\
             impl Mac for Fast { fn arb(&self) { fast(); } }\n\
             struct Ring<P: Mac> { mac: P }\n\
             impl<P: Mac> Ring<P> { fn step(&self) { self.mac.arb(); } }\n\
             fn default_alloc() {}\nfn fast() {}",
        )];
        let cg = CallGraph::build(&files);
        let step = files[0].fns.iter().position(|f| f.name == "step").unwrap();
        let reach = cg.reachable(&files, &[(0, step)]);
        let names = reach_names(&files, &reach);
        assert!(names.contains(&"fast"), "{names:?}");
        assert!(
            names.contains(&"default_alloc"),
            "default body walked: {names:?}"
        );
    }

    #[test]
    fn lock_chain_infers_cross_crate_method() {
        // `self.rings[i].lock().expect(..)` then `ring.step()` resolves to
        // the foreign crate's Ring::step even though `step` is defined in
        // both crates (name resolution alone would pick the local one).
        let files = vec![
            file(
                "fabric",
                "struct Fabric { rings: Vec<Mutex<Ring>> }\n\
                 impl Fabric { fn step(&mut self) { let mut ring = self.rings[0].lock().expect(\"l\"); ring.step(); } }",
            ),
            file(
                "core",
                "struct Ring { n: u32 }\nimpl Ring { fn step(&mut self) { inner(); } }\nfn inner() {}",
            ),
        ];
        let cg = CallGraph::build(&files);
        let reach = cg.reachable(&files, &[(0, 0)]);
        let names: Vec<(usize, &str)> = reach
            .keys()
            .map(|&(fi, gi)| (fi, files[fi].fns[gi].name.as_str()))
            .collect();
        assert!(names.contains(&(1, "step")), "{names:?}");
        assert!(names.contains(&(1, "inner")), "{names:?}");
    }

    #[test]
    fn pruned_functions_stop_the_walk() {
        let files = vec![file(
            "a",
            "fn root() { rare(); steady(); }\nfn rare() { deep(); }\nfn deep() {}\nfn steady() {}",
        )];
        let cg = CallGraph::build(&files);
        let pruned: BTreeSet<FnRef> = std::iter::once((0usize, 1usize)).collect();
        let reach = cg.reachable_pruned(&files, &[(0, 0)], &pruned);
        assert_eq!(
            reach_names(&files, &reach),
            ["root", "steady"],
            "rare() and everything behind it pruned"
        );
    }

    #[test]
    fn ambiguous_cross_crate_names_do_not_merge() {
        let files = vec![
            file("a", "fn root() { shared(); }"),
            file("b", "fn shared() { evil(); }\nfn evil() {}"),
            file("c", "fn shared() {}"),
        ];
        let cg = CallGraph::build(&files);
        let reach = cg.reachable(&files, &[(0, 0)]);
        assert_eq!(reach.len(), 1, "shared() is ambiguous across b and c");
    }
}
