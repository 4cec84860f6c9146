//! Per-file source model: cleaned text, line table, test-code mask,
//! function spans, and `ccr-verify:` markers.
//!
//! Marker grammar (inside ordinary `//` comments):
//!
//! ```text
//! // ccr-verify: allow(<rule>) -- <reason>
//! // ccr-verify: hot_path
//! // ccr-verify: event_path -- <reason>
//! ```
//!
//! An `allow` marker suppresses findings of `<rule>` on its own line and on
//! the line directly below (so it can sit above the offending statement).
//! The reason is mandatory; the gate reports markers whose reason is
//! missing, and markers that suppressed nothing, as errors of their own —
//! "zero unexplained allow-markers" is part of the contract.
//!
//! `hot_path` marks the function below as a root of the alloc-free walk;
//! `event_path` marks it as a *rare-event* function (admission, fault
//! reconfiguration, teardown) that is reachable from a hot root but runs
//! outside the steady-state slot loop — the alloc walk stops there instead
//! of flagging its (legitimate) allocations. The reason is mandatory, same
//! as `allow`.

use crate::lexer::{clean_source, Cleaned};
use std::path::PathBuf;

/// One `ccr-verify: allow(...)` marker.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// 1-indexed line the marker comment sits on.
    pub line: usize,
    /// Rule name inside `allow(...)`.
    pub rule: String,
    /// Justification text after the rule; empty is an error.
    pub reason: String,
}

/// What item a function definition belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnOwner {
    /// A free function at module scope.
    Free,
    /// A method inside `impls[idx]` (inherent or trait impl).
    Impl(usize),
    /// A default method inside `traits[idx]`.
    Trait(usize),
}

/// A function item found in a file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name (identifier after `fn`).
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Byte range of the body (including braces) in the cleaned text.
    pub body: (usize, usize),
    /// True when the body lies inside `#[cfg(test)]` code or the fn is
    /// `#[test]`-annotated.
    pub is_test: bool,
    /// True for a plain `pub fn` (not `pub(crate)` or narrower).
    pub is_pub: bool,
    /// True when a `ccr-verify: hot_path` marker sits within two lines
    /// above the `fn` keyword.
    pub hot_root: bool,
    /// True when a `ccr-verify: event_path` marker sits within two lines
    /// above the `fn` keyword: the function handles rare events (admission,
    /// faults) and is pruned from the alloc-in-hot-path walk.
    pub event_path: bool,
    /// Which impl/trait block (if any) owns this definition.
    pub owner: FnOwner,
    /// Generic parameters with their first trait bound (`P` → `MacProtocol`
    /// for `fn f<P: MacProtocol>`).
    pub generics: Vec<(String, Option<String>)>,
    /// `(name, type text)` of each simple identifier parameter. Receiver
    /// (`self`) forms and pattern parameters are omitted.
    pub params: Vec<(String, String)>,
    /// Return type text after `->`, if any.
    pub ret: Option<String>,
}

/// An `impl` block: `impl<G> Trait for Type { .. }` or `impl Type { .. }`.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// Base name of the self type (`RingNetwork` for
    /// `impl<P: MacProtocol> RingNetwork<P>`).
    pub self_type: String,
    /// Base name of the implemented trait for trait impls.
    pub trait_name: Option<String>,
    /// Generic parameters with their first trait bound.
    pub generics: Vec<(String, Option<String>)>,
    /// Byte range of the block body (including braces) in the cleaned text.
    pub body: (usize, usize),
}

/// A `trait` block, with every method name it declares (defaulted or not).
#[derive(Debug, Clone)]
pub struct TraitDef {
    /// Trait name.
    pub name: String,
    /// Names of all `fn` items declared in the block.
    pub methods: Vec<String>,
    /// Byte range of the block body in the cleaned text.
    pub body: (usize, usize),
}

/// A braced `struct` definition with named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Generic parameters with their first trait bound (`P` →
    /// `MacProtocol` for `struct RingNetwork<P: MacProtocol = CcrEdfMac>`).
    pub generics: Vec<(String, Option<String>)>,
    /// `(field name, type text)` pairs.
    pub fields: Vec<(String, String)>,
}

/// Everything the rules need to know about one source file.
pub struct FileModel {
    /// Path as given to [`FileModel::parse`].
    pub path: PathBuf,
    /// Cargo package name of the owning crate.
    pub crate_name: String,
    /// Raw source (only used for string-literal checks, e.g. `expect("")`).
    pub raw: String,
    /// Comment/string-blanked source; same length and line structure.
    pub clean: String,
    /// Byte offset of the start of each 1-indexed line in `clean`.
    line_starts: Vec<usize>,
    /// `mask[line-1]` is true when the line is test-only code.
    pub test_mask: Vec<bool>,
    /// Function items, in file order.
    pub fns: Vec<FnDef>,
    /// Allow markers, in file order.
    pub markers: Vec<AllowMarker>,
    /// `impl` blocks, in file order.
    pub impls: Vec<ImplDef>,
    /// `trait` blocks, in file order.
    pub traits: Vec<TraitDef>,
    /// Braced `struct` definitions, in file order.
    pub structs: Vec<StructDef>,
}

impl FileModel {
    /// Parse one file.
    pub fn parse(path: PathBuf, crate_name: &str, raw: String) -> FileModel {
        let Cleaned { clean, comments } = clean_source(&raw);
        let line_starts = line_starts(&clean);
        let n_lines = line_starts.len();
        let test_mask = test_mask(&clean, &line_starts, n_lines);

        let mut markers = Vec::new();
        let mut hot_lines = Vec::new();
        let mut event_lines = Vec::new();
        for (line, text) in &comments {
            let t = text.trim();
            let Some(rest) = t.strip_prefix("ccr-verify:") else {
                continue;
            };
            let rest = rest.trim();
            if rest == "hot_path" {
                hot_lines.push(*line);
            } else if let Some(tail) = rest.strip_prefix("event_path") {
                // The reason is mandatory: `event_path -- why this is rare`.
                let reason = tail.trim().trim_start_matches(['-', '—', ':']).trim();
                if reason.is_empty() {
                    markers.push(AllowMarker {
                        line: *line,
                        rule: "<unparseable: event_path without a reason>".into(),
                        reason: String::new(),
                    });
                } else {
                    event_lines.push(*line);
                }
            } else if let Some(args) = rest.strip_prefix("allow(") {
                if let Some(close) = args.find(')') {
                    let rule = args[..close].trim().to_string();
                    let reason = args[close + 1..]
                        .trim()
                        .trim_start_matches(['-', '—', ':'])
                        .trim()
                        .to_string();
                    markers.push(AllowMarker {
                        line: *line,
                        rule,
                        reason,
                    });
                }
            } else {
                // Unknown ccr-verify directive: surface as a marker with an
                // unknown rule so the gate flags it instead of silently
                // ignoring a typo.
                markers.push(AllowMarker {
                    line: *line,
                    rule: format!("<unparseable: {rest}>"),
                    reason: String::new(),
                });
            }
        }

        let mut fns = parse_fns(&clean, &line_starts, &test_mask, &hot_lines, &event_lines);
        let (impls, traits, structs) = parse_items(&clean);
        // Attach each fn to the innermost impl/trait block containing its
        // body. Impl and trait bodies never nest, so a simple containment
        // check suffices; impl wins because methods can't live in both.
        for f in &mut fns {
            for (ii, im) in impls.iter().enumerate() {
                if im.body.0 < f.body.0 && f.body.1 <= im.body.1 {
                    f.owner = FnOwner::Impl(ii);
                }
            }
            if f.owner == FnOwner::Free {
                for (ti, tr) in traits.iter().enumerate() {
                    if tr.body.0 < f.body.0 && f.body.1 <= tr.body.1 {
                        f.owner = FnOwner::Trait(ti);
                    }
                }
            }
        }

        FileModel {
            path,
            crate_name: crate_name.to_string(),
            raw,
            clean,
            line_starts,
            test_mask,
            fns,
            markers,
            impls,
            traits,
            structs,
        }
    }

    /// 1-indexed line containing byte offset `pos` of the cleaned text.
    pub fn line_of(&self, pos: usize) -> usize {
        match self.line_starts.binary_search(&pos) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// The raw text of a 1-indexed line, trimmed, for finding snippets.
    pub fn snippet(&self, line: usize) -> &str {
        self.raw.lines().nth(line - 1).unwrap_or("").trim()
    }

    /// True when the 1-indexed line is test-only code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_mask.get(line - 1).copied().unwrap_or(false)
    }

    /// Iterate over the cleaned text of each non-test line as
    /// `(line_number, text)`.
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.clean
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(n, _)| !self.is_test_line(*n))
    }
}

fn line_starts(s: &str) -> Vec<usize> {
    let mut v = vec![0usize];
    for (i, b) in s.bytes().enumerate() {
        if b == b'\n' {
            v.push(i + 1);
        }
    }
    v
}

/// Mark every line covered by `#[cfg(test)]`-gated items or `#[test]`
/// functions. Works on cleaned text, so braces inside strings can't confuse
/// the matcher.
fn test_mask(clean: &str, line_starts: &[usize], n_lines: usize) -> Vec<bool> {
    let mut mask = vec![false; n_lines];
    for pat in ["#[cfg(test)]", "#[cfg(all(test", "#[test]"] {
        let mut from = 0usize;
        while let Some(hit) = clean[from..].find(pat) {
            let at = from + hit;
            from = at + pat.len();
            // Find the gated item's body: the next `{` before any
            // same-level `;` (an item like `#[cfg(test)] use x;` has none).
            let mut j = at + pat.len();
            let bytes = clean.as_bytes();
            let mut depth_paren = 0i32;
            let mut body_start = None;
            while j < bytes.len() {
                match bytes[j] {
                    b'(' | b'[' => depth_paren += 1,
                    b')' | b']' => depth_paren -= 1,
                    b';' if depth_paren == 0 => break,
                    b'{' if depth_paren == 0 => {
                        body_start = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = body_start else { continue };
            let close = match_brace(clean, open);
            let (a, b) = (line_of_at(line_starts, at), line_of_at(line_starts, close));
            for l in a..=b.min(n_lines) {
                mask[l - 1] = true;
            }
        }
    }
    mask
}

fn line_of_at(line_starts: &[usize], pos: usize) -> usize {
    match line_starts.binary_search(&pos) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

/// Byte offset of the `}` matching the `{` at `open` (or end of text).
pub fn match_brace(clean: &str, open: usize) -> usize {
    let bytes = clean.as_bytes();
    let mut depth = 0i32;
    let mut j = open;
    while j < bytes.len() {
        match bytes[j] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    clean.len().saturating_sub(1)
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn parse_fns(
    clean: &str,
    line_starts: &[usize],
    test_mask: &[bool],
    hot_lines: &[usize],
    event_lines: &[usize],
) -> Vec<FnDef> {
    let bytes = clean.as_bytes();
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i + 2 < bytes.len() {
        // A `fn` keyword: preceded by a non-identifier byte, followed by
        // whitespace.
        if &bytes[i..i + 2] == b"fn"
            && (i == 0 || !is_ident(bytes[i - 1]))
            && bytes.get(i + 2).is_some_and(|b| b.is_ascii_whitespace())
        {
            let mut j = i + 2;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let name_start = j;
            while j < bytes.len() && is_ident(bytes[j]) {
                j += 1;
            }
            if j == name_start {
                i += 2;
                continue;
            }
            let name = clean[name_start..j].to_string();
            let sig_start = j;
            // Scan the signature for the body `{` (or `;` for trait
            // signatures / extern decls) at bracket depth 0.
            let mut depth = 0i32;
            let mut body = None;
            while j < bytes.len() {
                match bytes[j] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b';' if depth == 0 => break,
                    b'{' if depth == 0 => {
                        body = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let line = line_of_at(line_starts, i);
            if let Some(open) = body {
                let close = match_brace(clean, open);
                let is_test = test_mask.get(line - 1).copied().unwrap_or(false);
                let hot_root = hot_lines.iter().any(|&hl| hl < line && line - hl <= 3);
                let event_path = event_lines.iter().any(|&el| el < line && line - el <= 3);
                let sig = &clean[sig_start..open];
                let (generics, params, ret) = parse_signature(sig);
                let prefix = &clean[line_starts[line - 1]..i];
                fns.push(FnDef {
                    name,
                    line,
                    body: (open, close),
                    is_test,
                    is_pub: prefix.split_whitespace().next() == Some("pub"),
                    hot_root,
                    event_path,
                    owner: FnOwner::Free,
                    generics,
                    params,
                    ret,
                });
                // Continue scanning *inside* the body too (nested fns are
                // rare but real); just move past the signature.
                i = open + 1;
                continue;
            }
            i = j.max(i + 2);
            continue;
        }
        i += 1;
    }
    fns
}

/// Split `text` on top-level commas (depth 0 of `()`, `[]`, `{}`, `<>`).
fn split_top_level(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'<' => {
                // `->` never appears where we split; treat every `<` as an
                // opener unless it is part of `<<`-free comparison contexts,
                // which cannot occur in type position.
                angle += 1;
            }
            b'>' if i > 0 && bytes[i - 1] == b'-' => {} // `->` arrow
            b'>' => angle -= 1,
            b',' if depth == 0 && angle <= 0 => {
                out.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < text.len() {
        out.push(&text[start..]);
    }
    out
}

/// Parse `<A: Bound, B, 'a, const N: usize>` starting at the `<` byte.
/// Returns the params (lifetimes and consts skipped) and the byte offset
/// one past the closing `>`.
fn parse_generics(text: &str, open: usize) -> (Vec<(String, Option<String>)>, usize) {
    let bytes = text.as_bytes();
    let mut depth = 0i32;
    let mut i = open;
    let mut close = text.len();
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    close = i;
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    let inner = &text[open + 1..close.min(text.len())];
    let mut params = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() || part.starts_with('\'') || part.starts_with("const ") {
            continue;
        }
        let (name, bounds) = match part.find(':') {
            Some(c) => (part[..c].trim(), Some(part[c + 1..].trim())),
            None => (part.split('=').next().unwrap_or(part).trim(), None),
        };
        if name.is_empty() || !name.bytes().all(is_ident) {
            continue;
        }
        // First non-lifetime, non-`?Sized` bound, reduced to its base name.
        let bound = bounds.and_then(|b| {
            b.split('+')
                .map(str::trim)
                .find(|p| !p.starts_with('\'') && !p.starts_with('?'))
                .map(base_name)
        });
        params.push((name.to_string(), bound.filter(|b| !b.is_empty())));
    }
    (params, close.saturating_add(1))
}

/// The base identifier of a type path: `crate::mac::CcrEdfMac<T>` →
/// `CcrEdfMac`. Strips leading `&`, `mut`, and `dyn`/`impl` keywords.
pub fn base_name(ty: &str) -> String {
    let mut s = ty.trim();
    loop {
        let t = s
            .trim_start_matches('&')
            .trim_start()
            .trim_start_matches("mut ")
            .trim_start();
        let t = t
            .strip_prefix("dyn ")
            .or_else(|| t.strip_prefix("impl "))
            .unwrap_or(t)
            .trim_start();
        // Lifetimes after `&`.
        let t = if let Some(rest) = t.strip_prefix('\'') {
            rest.trim_start_matches(|c: char| c.is_alphanumeric() || c == '_')
                .trim_start()
        } else {
            t
        };
        if t == s {
            break;
        }
        s = t;
    }
    if s.starts_with('[') || s.starts_with('(') {
        return String::new(); // slices, arrays, tuples: no base name
    }
    let head = s
        .split(|c: char| c == '<' || c == '(' || c.is_whitespace())
        .next()
        .unwrap_or("");
    head.rsplit("::").next().unwrap_or("").to_string()
}

/// Parse one fn signature (text between the fn name and the body `{`):
/// generics, simple identifier params, and the return type.
fn parse_signature(sig: &str) -> SignatureParts {
    let bytes = sig.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    let generics = if bytes.get(i) == Some(&b'<') {
        let (g, end) = parse_generics(sig, i);
        i = end;
        g
    } else {
        Vec::new()
    };
    // Parameter list: the first balanced `(...)` from here.
    let mut params = Vec::new();
    let mut after_params = i;
    if let Some(rel) = sig[i..].find('(') {
        let open = i + rel;
        let mut depth = 0i32;
        let mut j = open;
        let mut close = sig.len();
        while j < bytes.len() {
            match bytes[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        for part in split_top_level(&sig[open + 1..close.min(sig.len())]) {
            let part = part.trim();
            let Some(colon) = find_top_level_colon(part) else {
                continue; // `self`, `&mut self`, …
            };
            let name = part[..colon].trim().trim_start_matches("mut ").trim();
            let ty = part[colon + 1..].trim();
            if !name.is_empty() && name.bytes().all(is_ident) {
                params.push((name.to_string(), ty.to_string()));
            }
        }
        after_params = close.saturating_add(1);
    }
    let ret = sig[after_params.min(sig.len())..].find("->").map(|r| {
        let tail = &sig[after_params + r + 2..];
        let end = tail.find("where").unwrap_or(tail.len());
        tail[..end].trim().to_string()
    });
    (generics, params, ret.filter(|r| !r.is_empty()))
}

type SignatureParts = (
    Vec<(String, Option<String>)>,
    Vec<(String, String)>,
    Option<String>,
);

/// A `:` at paren/angle depth 0 that is not part of `::`.
fn find_top_level_colon(part: &str) -> Option<usize> {
    let bytes = part.as_bytes();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth -= 1,
            b':' if depth == 0 => {
                if bytes.get(i + 1) == Some(&b':') {
                    i += 2;
                    continue;
                }
                return Some(i);
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Item keyword at the start of a line (after optional visibility and
/// `unsafe`/`default` qualifiers)? Returns true when `pos` is such a
/// keyword occurrence, which filters out `-> impl Trait` return types and
/// `&dyn Trait` mentions mid-expression.
fn at_item_position(clean: &str, pos: usize) -> bool {
    let line_start = clean[..pos].rfind('\n').map(|p| p + 1).unwrap_or(0);
    let prefix = clean[line_start..pos].trim_start();
    let mut rest = prefix;
    loop {
        let before = rest;
        for kw in ["pub", "unsafe", "default"] {
            if let Some(r) = rest.strip_prefix(kw) {
                let r = r.trim_start();
                // `pub(crate)` / `pub(super)`
                rest = if let Some(p) = r.strip_prefix('(') {
                    match p.find(')') {
                        Some(c) => p[c + 1..].trim_start(),
                        None => r,
                    }
                } else {
                    r
                };
            }
        }
        if rest == before {
            break;
        }
    }
    rest.is_empty()
}

/// Parse `impl`, `trait` and braced `struct` items out of the cleaned text.
fn parse_items(clean: &str) -> (Vec<ImplDef>, Vec<TraitDef>, Vec<StructDef>) {
    let bytes = clean.as_bytes();
    let mut impls = Vec::new();
    let mut traits = Vec::new();
    let mut structs = Vec::new();
    for (kw, which) in [("impl", 0u8), ("trait", 1u8), ("struct", 2u8)] {
        let kwb = kw.as_bytes();
        let mut from = 0usize;
        while let Some(hit) = clean[from..].find(kw) {
            let at = from + hit;
            from = at + kw.len();
            let bounded = (at == 0 || !is_ident(bytes[at - 1]))
                && bytes
                    .get(at + kw.len())
                    .is_some_and(|b| b.is_ascii_whitespace() || *b == b'<');
            if !bounded || !at_item_position(clean, at) {
                continue;
            }
            let mut i = at + kwb.len();
            match which {
                0 => {
                    // impl [<G>] [Trait for] Type [where ..] {
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    let generics = if bytes.get(i) == Some(&b'<') {
                        let (g, end) = parse_generics(clean, i);
                        i = end;
                        g
                    } else {
                        Vec::new()
                    };
                    // Header text up to the body `{` at angle/paren depth 0.
                    let mut depth = 0i32;
                    let mut j = i;
                    let mut open = None;
                    while j < bytes.len() {
                        match bytes[j] {
                            b'(' | b'[' => depth += 1,
                            b')' | b']' => depth -= 1,
                            b'<' => depth += 1,
                            b'>' if j > 0 && bytes[j - 1] == b'-' => {}
                            b'>' => depth -= 1,
                            b';' if depth == 0 => break,
                            b'{' if depth == 0 => {
                                open = Some(j);
                                break;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    let Some(open) = open else { continue };
                    let header = &clean[i..open];
                    let header = header.split(" where ").next().unwrap_or(header);
                    let (trait_name, self_ty) = match header.find(" for ") {
                        Some(f) => (Some(base_name(&header[..f])), base_name(&header[f + 5..])),
                        None => (None, base_name(header)),
                    };
                    let close = match_brace(clean, open);
                    impls.push(ImplDef {
                        self_type: self_ty,
                        trait_name: trait_name.filter(|t| !t.is_empty()),
                        generics,
                        body: (open, close),
                    });
                }
                1 => {
                    // trait Name[<G>][: Super] {
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    let name_start = i;
                    while i < bytes.len() && is_ident(bytes[i]) {
                        i += 1;
                    }
                    let name = clean[name_start..i].to_string();
                    if name.is_empty() {
                        continue;
                    }
                    let mut depth = 0i32;
                    let mut open = None;
                    let mut j = i;
                    while j < bytes.len() {
                        match bytes[j] {
                            b'(' | b'[' => depth += 1,
                            b')' | b']' => depth -= 1,
                            b'<' => depth += 1,
                            b'>' if j > 0 && bytes[j - 1] == b'-' => {}
                            b'>' => depth -= 1,
                            b';' if depth == 0 => break,
                            b'{' if depth == 0 => {
                                open = Some(j);
                                break;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    let Some(open) = open else { continue };
                    let close = match_brace(clean, open);
                    let body = &clean[open..=close.min(clean.len() - 1)];
                    let mut methods = Vec::new();
                    let bb = body.as_bytes();
                    let mut k = 0usize;
                    while let Some(h) = body[k..].find("fn") {
                        let p = k + h;
                        k = p + 2;
                        if (p == 0 || !is_ident(bb[p - 1]))
                            && bb.get(p + 2).is_some_and(|b| b.is_ascii_whitespace())
                        {
                            let mut q = p + 2;
                            while q < bb.len() && bb[q].is_ascii_whitespace() {
                                q += 1;
                            }
                            let ns = q;
                            while q < bb.len() && is_ident(bb[q]) {
                                q += 1;
                            }
                            if q > ns {
                                methods.push(body[ns..q].to_string());
                            }
                        }
                    }
                    traits.push(TraitDef {
                        name,
                        methods,
                        body: (open, close),
                    });
                }
                _ => {
                    // struct Name[<G>] { fields } — tuple/unit structs skipped.
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    let name_start = i;
                    while i < bytes.len() && is_ident(bytes[i]) {
                        i += 1;
                    }
                    let name = clean[name_start..i].to_string();
                    if name.is_empty() {
                        continue;
                    }
                    let generics = if bytes.get(i) == Some(&b'<') {
                        let (g, end) = parse_generics(clean, i);
                        i = end;
                        g
                    } else {
                        Vec::new()
                    };
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    // Skip a where clause, if present, up to `{` or `;`.
                    if clean[i..].starts_with("where") {
                        while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b';' {
                            i += 1;
                        }
                    }
                    if bytes.get(i) != Some(&b'{') {
                        continue; // tuple or unit struct
                    }
                    let close = match_brace(clean, i);
                    let inner = &clean[i + 1..close.min(clean.len())];
                    let mut fields = Vec::new();
                    for part in split_top_level(inner) {
                        let mut part = part.trim();
                        // Strip attributes and visibility.
                        while part.starts_with("#[") {
                            match part.find(']') {
                                Some(c) => part = part[c + 1..].trim_start(),
                                None => break,
                            }
                        }
                        part = part.strip_prefix("pub").unwrap_or(part).trim_start();
                        if let Some(p) = part.strip_prefix('(') {
                            if let Some(c) = p.find(')') {
                                part = p[c + 1..].trim_start();
                            }
                        }
                        let Some(colon) = find_top_level_colon(part) else {
                            continue;
                        };
                        let fname = part[..colon].trim();
                        let fty = part[colon + 1..].trim();
                        if !fname.is_empty() && fname.bytes().all(is_ident) {
                            fields.push((fname.to_string(), fty.to_string()));
                        }
                    }
                    structs.push(StructDef {
                        name,
                        generics,
                        fields,
                    });
                }
            }
        }
    }
    impls.sort_by_key(|i| i.body.0);
    traits.sort_by_key(|t| t.body.0);
    (impls, traits, structs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::parse(PathBuf::from("mem.rs"), "test-crate", src.to_string())
    }

    #[test]
    fn finds_fns_and_bodies() {
        let m = model("fn alpha() { beta(); }\nfn beta() -> u32 { 1 }\n");
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].name, "alpha");
        assert_eq!(m.fns[1].line, 2);
        let body = &m.clean[m.fns[0].body.0..=m.fns[0].body.1];
        assert!(body.contains("beta()"));
    }

    #[test]
    fn only_plain_pub_fns_are_public() {
        let m = model("pub fn a() {}\npub(crate) fn b() {}\nfn c() {}\npub const fn d() {}\n");
        let public: Vec<_> = m.fns.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
        assert_eq!(
            public,
            [("a", true), ("b", false), ("c", false), ("d", true)]
        );
    }

    #[test]
    fn trait_signatures_have_no_body() {
        let m = model("trait T { fn sig(&self) -> u8; fn with_default(&self) { } }");
        let names: Vec<_> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["with_default"]);
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n";
        let m = model(src);
        assert!(!m.is_test_line(1));
        assert!(m.is_test_line(4));
        let helper = m.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.is_test);
    }

    #[test]
    fn markers_parse_with_reasons() {
        let src = "// ccr-verify: allow(nondeterminism) -- wall-clock meter only\nlet t = 0;\n// ccr-verify: hot_path\nfn fast() {}\n// ccr-verify: allow(unwrap-in-lib)\n";
        let m = model(src);
        assert_eq!(m.markers.len(), 2);
        assert_eq!(m.markers[0].rule, "nondeterminism");
        assert_eq!(m.markers[0].reason, "wall-clock meter only");
        assert!(m.markers[1].reason.is_empty());
        assert!(m.fns.iter().any(|f| f.name == "fast" && f.hot_root));
    }

    #[test]
    fn event_path_markers_need_a_reason() {
        let src = "// ccr-verify: event_path -- admission runs off the slot loop\nfn admit() {}\n\n\n\n// ccr-verify: event_path\nfn bare() {}\n";
        let m = model(src);
        assert!(m.fns.iter().any(|f| f.name == "admit" && f.event_path));
        let bare = m.fns.iter().find(|f| f.name == "bare").unwrap();
        assert!(!bare.event_path, "reasonless marker grants nothing");
        assert_eq!(m.markers.len(), 1);
        assert!(m.markers[0].rule.starts_with("<unparseable"));
    }

    #[test]
    fn where_clause_bracket_depth_does_not_confuse_body() {
        let m = model("fn g<T: Into<Vec<u8>>>(x: [u8; 4]) -> u8 where T: Sized { x[0] }");
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "g");
    }

    #[test]
    fn impl_blocks_and_owners() {
        let src = "\
trait Mac { fn go(&self); fn tick(&self) { self.go(); } }
struct Edf { queue: Vec<u32> }
impl Mac for Edf {
    fn go(&self) {}
}
impl Edf {
    fn helper(&self) -> u32 { 1 }
}
fn free() {}
";
        let m = model(src);
        assert_eq!(m.traits.len(), 1);
        assert_eq!(m.traits[0].name, "Mac");
        assert_eq!(m.traits[0].methods, ["go", "tick"]);
        assert_eq!(m.impls.len(), 2);
        assert_eq!(m.impls[0].trait_name.as_deref(), Some("Mac"));
        assert_eq!(m.impls[0].self_type, "Edf");
        assert_eq!(m.impls[1].trait_name, None);
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.structs[0].fields, [("queue".into(), "Vec<u32>".into())]);
        let tick = m.fns.iter().find(|f| f.name == "tick").expect("tick");
        assert_eq!(tick.owner, FnOwner::Trait(0));
        let go = m.fns.iter().find(|f| f.name == "go").expect("go");
        assert_eq!(go.owner, FnOwner::Impl(0));
        let helper = m.fns.iter().find(|f| f.name == "helper").expect("helper");
        assert_eq!(helper.owner, FnOwner::Impl(1));
        assert_eq!(helper.ret.as_deref(), Some("u32"));
        let free = m.fns.iter().find(|f| f.name == "free").expect("free");
        assert_eq!(free.owner, FnOwner::Free);
    }

    #[test]
    fn generic_impl_bounds_are_parsed() {
        let src = "\
struct Ring<P: Mac = Default> { mac: P, slot_ps: u64 }
impl<P: Mac> Ring<P> {
    fn step(&mut self, n: u32) -> u64 { self.slot_ps }
}
";
        let m = model(src);
        assert_eq!(m.structs[0].generics, [("P".into(), Some("Mac".into()))]);
        assert_eq!(m.impls[0].generics, [("P".into(), Some("Mac".into()))]);
        assert_eq!(m.impls[0].self_type, "Ring");
        let step = &m.fns[0];
        assert_eq!(step.params, [("n".into(), "u32".into())]);
        assert_eq!(step.ret.as_deref(), Some("u64"));
    }

    #[test]
    fn return_position_impl_trait_is_not_an_impl_block() {
        let src = "fn iterish() -> impl Iterator<Item = u8> { [1u8].into_iter() }\n";
        let m = model(src);
        assert!(m.impls.is_empty());
        assert_eq!(m.fns.len(), 1);
    }

    #[test]
    fn base_name_strips_wrappers() {
        assert_eq!(base_name("&mut crate::mac::CcrEdfMac"), "CcrEdfMac");
        assert_eq!(base_name("dyn Scheduler"), "Scheduler");
        assert_eq!(base_name("&'a [u8]"), "");
        assert_eq!(base_name("Vec<Frame>"), "Vec");
    }
}
