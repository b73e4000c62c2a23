//! Item-level structure over the token stream: functions (with their
//! enclosing impl type and whether they are test code) and declared lock
//! fields.
//!
//! This is not a full AST — rules only need to know *which function* a
//! token range belongs to, whether that function is test-gated, and how
//! braces nest. Expression grammar stays opaque; rules pattern-match the
//! token stream inside function bodies themselves.

use crate::lexer::Token;

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` self-type name, if any.
    pub impl_type: Option<String>,
    /// Whether the fn is test code: `#[test]`, `#[cfg(test)]`, or inside
    /// a test-gated module/impl.
    pub is_test: bool,
    /// Token-index range of the body, *inside* the braces (empty for
    /// bodyless trait-method declarations).
    pub body: (usize, usize),
}

/// Parsed item structure for one file.
#[derive(Debug, Default)]
pub struct Syntax {
    pub fns: Vec<FnInfo>,
    /// Field/static names declared as `Mutex<…>` or `RwLock<…>`.
    pub lock_fields: Vec<String>,
}

/// Finds the matching `}` for the `{` at `open` (returns the index of the
/// closing brace, or `toks.len()` if unbalanced).
pub fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Whether an attribute's tokens gate the item to test builds:
/// `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]` — but not
/// `#[cfg(not(test))]`.
fn attr_is_test(attr: &[Token]) -> bool {
    let has = |s: &str| attr.iter().any(|t| t.is_ident(s));
    (has("test") && !has("not")) || (has("cfg") && has("test") && !has("not"))
}

/// Extracts the self-type name from the tokens of an `impl` header
/// (between `impl` and the body `{`): the last path segment of the type
/// after `for` if present, else of the first type after any generics.
fn impl_self_type(header: &[Token]) -> Option<String> {
    // Cut generics `<…>` that directly follow `impl`.
    let mut i = 0usize;
    if header.first().is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i64;
        while i < header.len() {
            if header[i].is_punct('<') {
                depth += 1;
            } else if header[i].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // If a `for` appears at angle-depth 0, the self type follows it.
    let mut start = i;
    let mut depth = 0i64;
    let mut j = i;
    while j < header.len() {
        if header[j].is_punct('<') {
            depth += 1;
        } else if header[j].is_punct('>') {
            depth -= 1;
        } else if depth == 0 && header[j].is_ident("for") {
            start = j + 1;
        } else if depth == 0 && header[j].is_ident("where") {
            break;
        }
        j += 1;
    }
    // First identifier of the type path, following it through `::`.
    let mut last: Option<String> = None;
    let mut k = start;
    while k < header.len() {
        if let Some(id) = header[k].ident() {
            if id == "where" {
                break;
            }
            if !matches!(id, "dyn" | "mut" | "const") {
                last = Some(id.to_string());
                // Follow `A::B` to the final segment.
                while k + 2 < header.len()
                    && header[k + 1].is_punct(':')
                    && header[k + 2].is_punct(':')
                {
                    k += 3;
                    if let Some(seg) = header.get(k).and_then(Token::ident) {
                        last = Some(seg.to_string());
                    }
                }
                break;
            }
        } else if header[k].is_punct('<') {
            break;
        }
        k += 1;
    }
    last
}

/// Scans forward from `i` (just past `fn name`) to the body `{` or the
/// `;` of a bodyless declaration, tracking parens/brackets/angles so
/// `fn f(x: HashMap<K, V>) -> Result<(), E> where …` parses. Returns
/// the index of the `{` or `;`.
fn find_fn_body(toks: &[Token], mut i: usize) -> usize {
    let mut paren = 0i64;
    let mut angle = 0i64;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct('<') {
            // `->` already consumed as '-','>': only count bare '<'.
            angle += 1;
        } else if t.is_punct('>') {
            // Ignore the '>' of `->`.
            if i == 0 || !toks[i - 1].is_punct('-') {
                angle = (angle - 1).max(0);
            }
        } else if paren == 0 && angle == 0 && (t.is_punct('{') || t.is_punct(';')) {
            return i;
        }
        i += 1;
    }
    toks.len()
}

/// Collects `name: Mutex<…>` / `name: RwLock<…>` declarations (struct
/// fields and statics), looking through `Arc<…>` and path qualifiers.
fn collect_lock_fields(toks: &[Token], out: &mut Vec<String>) {
    for (i, t) in toks.iter().enumerate() {
        let is_lock = t.is_ident("Mutex") || t.is_ident("RwLock");
        if !is_lock || !toks.get(i + 1).is_some_and(|n| n.is_punct('<')) {
            continue;
        }
        // Walk backwards over wrapper tokens to the `name :` declaration.
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 12 {
            j -= 1;
            steps += 1;
            let w = &toks[j];
            let is_wrapper = w.is_punct('<')
                || w.is_punct(':')
                || w.ident().is_some_and(|id| {
                    matches!(id, "Arc" | "Box" | "std" | "sync" | "parking_lot" | "loom")
                });
            if !is_wrapper {
                break;
            }
            // Found `name :` (single colon, not `::`).
            if w.is_punct(':')
                && j > 0
                && !toks[j - 1].is_punct(':')
                && !toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
            {
                if let Some(name) = toks[j - 1].ident() {
                    if !matches!(name, "Ok" | "Err" | "Some" | "None") {
                        out.push(name.to_string());
                    }
                }
                break;
            }
        }
    }
    out.sort();
    out.dedup();
}

/// Parses the item structure of a lexed file.
pub fn parse(tokens: &[Token]) -> Syntax {
    let mut syn = Syntax::default();
    collect_lock_fields(tokens, &mut syn.lock_fields);
    scan_items(tokens, 0, tokens.len(), None, false, &mut syn);
    syn
}

/// Recursively scans `toks[start..end]` for items.
fn scan_items(
    toks: &[Token],
    start: usize,
    end: usize,
    impl_type: Option<&str>,
    in_test: bool,
    syn: &mut Syntax,
) {
    let mut i = start;
    let mut pending_test = false;
    while i < end {
        let t = &toks[i];
        // Attribute: `#[…]` (possibly `#![…]`).
        if t.is_punct('#') {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                // Find the matching `]`.
                let mut depth = 0i64;
                let mut k = j;
                while k < end {
                    if toks[k].is_punct('[') {
                        depth += 1;
                    } else if toks[k].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                if attr_is_test(&toks[j..k.min(end)]) {
                    pending_test = true;
                }
                i = k + 1;
                continue;
            }
        }
        // `mod name { … }`
        if t.is_ident("mod")
            && toks.get(i + 1).and_then(Token::ident).is_some()
            && toks.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            let close = matching_brace(toks, i + 2);
            let gated = in_test || pending_test;
            scan_items(toks, i + 3, close, None, gated, syn);
            pending_test = false;
            i = close + 1;
            continue;
        }
        // `impl … { … }` / `trait Name … { … }`
        if t.is_ident("impl") || t.is_ident("trait") {
            let body_open = find_fn_body(toks, i + 1);
            if toks.get(body_open).is_some_and(|t| t.is_punct('{')) {
                let close = matching_brace(toks, body_open);
                let gated = in_test || pending_test;
                let self_ty = if t.is_ident("impl") {
                    impl_self_type(&toks[i + 1..body_open])
                } else {
                    None
                };
                scan_items(toks, body_open + 1, close, self_ty.as_deref(), gated, syn);
                pending_test = false;
                i = close + 1;
                continue;
            }
        }
        // `fn name … { … }` or `fn name …;`
        if t.is_ident("fn") {
            if let Some(name) = toks.get(i + 1).and_then(Token::ident) {
                let body_open = find_fn_body(toks, i + 2);
                let gated = in_test || pending_test;
                let (body, next) = if toks.get(body_open).is_some_and(|t| t.is_punct('{')) {
                    let close = matching_brace(toks, body_open);
                    ((body_open + 1, close), close + 1)
                } else {
                    ((body_open, body_open), body_open + 1)
                };
                syn.fns.push(FnInfo {
                    name: name.to_string(),
                    impl_type: impl_type.map(str::to_string),
                    is_test: gated,
                    body,
                });
                pending_test = false;
                i = next;
                continue;
            }
        }
        // Any other balanced brace block at item level (struct/enum
        // bodies, const initializers): skip it whole so its contents are
        // not mistaken for items.
        if t.is_punct('{') {
            i = matching_brace(toks, i) + 1;
            pending_test = false;
            continue;
        }
        // `use`, `static`, `const`, struct defs without braces, etc.
        if t.is_punct(';') {
            pending_test = false;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fns(src: &str) -> Vec<FnInfo> {
        parse(&lex(src)).fns
    }

    #[test]
    fn finds_free_and_method_fns() {
        let src = "fn free() {}\nimpl Widget { fn method(&self) -> u32 { 1 } }";
        let fs = fns(src);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].name, "free");
        assert_eq!(fs[0].impl_type, None);
        assert_eq!(fs[1].name, "method");
        assert_eq!(fs[1].impl_type.as_deref(), Some("Widget"));
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let fs = fns("impl<T: Clone> fmt::Debug for Wrapper<T> { fn fmt(&self) {} }");
        assert_eq!(fs[0].impl_type.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn cfg_test_modules_are_gated() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }";
        let fs = fns(src);
        assert_eq!(fs.len(), 3);
        assert!(!fs[0].is_test);
        assert!(fs[1].is_test);
        assert!(fs[2].is_test);
    }

    #[test]
    fn cfg_not_test_is_production() {
        let fs = fns("#[cfg(not(test))] fn prod() {}");
        assert!(!fs[0].is_test);
    }

    #[test]
    fn generic_signatures_find_their_body() {
        let src = "fn f<K: Ord, V>(m: HashMap<K, V>) -> Result<Vec<u8>, io::Error> where K: Clone { body() }";
        let fs = fns(src);
        assert_eq!(fs.len(), 1);
        assert_ne!(fs[0].body.0, fs[0].body.1);
    }

    #[test]
    fn trait_decls_without_bodies() {
        let fs = fns("trait T { fn decl(&self) -> u32; fn with_default(&self) { f() } }");
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].body.0, fs[0].body.1);
        assert_ne!(fs[1].body.0, fs[1].body.1);
    }

    #[test]
    fn lock_fields_collected() {
        let src = "struct S { inner: Mutex<State>, data: Arc<RwLock<Vec<u8>>>, plain: u32 }\nstatic GLOBAL: Mutex<i32> = Mutex::new(0);";
        let syn = parse(&lex(src));
        assert_eq!(syn.lock_fields, vec!["GLOBAL", "data", "inner"]);
    }

    #[test]
    fn struct_bodies_are_not_items() {
        let src = "struct S { f: u32 }\nfn after() {}";
        let fs = fns(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].name, "after");
    }
}
